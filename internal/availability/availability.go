// Package availability implements Skute's availability estimation and
// replica-placement scoring.
//
// Estimating true per-server failure probabilities would require an
// enormous amount of historical and private information, so the paper
// approximates the availability of a partition by the geographic diversity
// of the servers hosting its replicas (Eq. 2):
//
//	avail = sum_{i<j} conf_i * conf_j * diversity(s_i, s_j)
//
// and places new replicas by maximizing the net benefit between the added
// diversity and the candidate's virtual rent (Eq. 3):
//
//	argmax_j sum_k g_j * conf_j * diversity(s_k, s_j) - c_j
package availability

import (
	"skute/internal/ring"
	"skute/internal/topology"
)

// Host is the placement-relevant view of a server: identity, location and
// confidence.
type Host struct {
	ID   ring.ServerID
	Loc  topology.Location
	Conf float64
}

// Of computes Eq. 2 over the replica hosts of a partition. Fewer than two
// replicas have availability 0: a lone copy provides no diversity at all.
func Of(hosts []Host) float64 {
	var sum float64
	for i := 0; i < len(hosts); i++ {
		for j := i + 1; j < len(hosts); j++ {
			sum += hosts[i].Conf * hosts[j].Conf * float64(topology.Diversity(hosts[i].Loc, hosts[j].Loc))
		}
	}
	return sum
}

// With computes Eq. 2 for the replica set extended by one extra host,
// without building a new slice.
func With(hosts []Host, extra Host) float64 {
	sum := Of(hosts)
	for _, h := range hosts {
		sum += h.Conf * extra.Conf * float64(topology.Diversity(h.Loc, extra.Loc))
	}
	return sum
}

// Without computes Eq. 2 for the replica set with the identified host
// removed; it is the check a virtual node runs before committing suicide.
// Removing an absent host returns Of(hosts) unchanged.
func Without(hosts []Host, id ring.ServerID) float64 {
	var sum float64
	for i := 0; i < len(hosts); i++ {
		if hosts[i].ID == id {
			continue
		}
		for j := i + 1; j < len(hosts); j++ {
			if hosts[j].ID == id {
				continue
			}
			sum += hosts[i].Conf * hosts[j].Conf * float64(topology.Diversity(hosts[i].Loc, hosts[j].Loc))
		}
	}
	return sum
}

// ThresholdForReplicas returns the availability threshold that a partition
// with k geographically well-spread replicas (pairwise on different
// continents, confidence 1) satisfies, while k-1 replicas cannot possibly
// reach it: 95% of k*(k-1)/2 * MaxDiversity. The paper's three
// applications use k = 2, 3, 4. k below 2 yields 0 (no replication
// pressure), matching Eq. 2 where a single replica scores 0.
func ThresholdForReplicas(k int) float64 {
	if k < 2 {
		return 0
	}
	pairs := float64(k*(k-1)) / 2
	return 0.95 * pairs * float64(topology.MaxDiversity)
}

// Candidate is a server being evaluated as the target of a replication or
// migration: its placement view plus its announced virtual rent and the
// geographic preference g of the partition's clients for it (Eq. 4).
type Candidate struct {
	Host
	Rent float64
	G    float64
}

// Score evaluates Eq. 3 for one candidate against the current replica
// hosts: the g- and confidence-weighted diversity the candidate adds,
// minus its rent.
func Score(current []Host, c Candidate) float64 {
	var div float64
	for _, h := range current {
		div += float64(topology.Diversity(h.Loc, c.Loc))
	}
	return c.G*c.Conf*div - c.Rent
}

// Best returns the candidate maximizing Eq. 3. Ties break toward the lower
// rent and then the lower server ID so that concurrent agents make
// deterministic, reproducible choices. The boolean is false when the
// candidate list is empty.
func Best(current []Host, cands []Candidate) (Candidate, bool) {
	var p Picker
	for _, c := range cands {
		p.Offer(c, Score(current, c))
	}
	return p.Best()
}

// Picker is Best in streaming form: a caller offers candidates with their
// score one at a time, filtering as it scans instead of building a list.
type Picker struct {
	best  Candidate
	score float64
	ok    bool
}

// Offer considers candidate c with Eq. 3 score s under Best's order.
func (p *Picker) Offer(c Candidate, s float64) {
	if !p.ok || s > p.score ||
		(s == p.score && (c.Rent < p.best.Rent || (c.Rent == p.best.Rent && c.ID < p.best.ID))) {
		p.best, p.score, p.ok = c, s, true
	}
}

// Best returns the winning candidate, or false when none was offered.
func (p *Picker) Best() (Candidate, bool) { return p.best, p.ok }

// WithScore returns With(hosts, c.Host) and Score(hosts, c), bit for bit,
// in one pass over the hosts, given base = Of(hosts) computed once.
func WithScore(hosts []Host, base float64, c Candidate) (avail, score float64) {
	avail = base
	var div float64
	for _, h := range hosts {
		d := float64(topology.Diversity(h.Loc, c.Loc))
		avail += h.Conf * c.Conf * d
		div += d
	}
	return avail, c.G*c.Conf*div - c.Rent
}

// MaxAchievable returns the largest availability k replicas can reach in
// any topology: all pairs across continents at full confidence — the
// bound the threshold tests check ThresholdForReplicas against.
func MaxAchievable(k int) float64 {
	if k < 2 {
		return 0
	}
	return float64(k*(k-1)) / 2 * float64(topology.MaxDiversity)
}
