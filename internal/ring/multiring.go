package ring

import (
	"fmt"
	"sort"
)

// RingID names one virtual ring: an application plus one of its
// availability classes. Skute runs one virtual ring per (application,
// availability level) on the shared cloud (Fig. 1 of the paper).
type RingID struct {
	App   string // application / data owner
	Class string // availability class, e.g. "gold"
}

// String renders the id as "app/class".
func (id RingID) String() string { return id.App + "/" + id.Class }

// MultiRing is the registry of all virtual rings sharing one cloud. Every
// ring routes and replicates independently; the registry only provides
// lookup and deterministic iteration.
type MultiRing struct {
	rings map[RingID]*Ring
}

// NewMultiRing returns an empty registry.
func NewMultiRing() *MultiRing {
	return &MultiRing{rings: make(map[RingID]*Ring)}
}

// Add creates a ring with m initial partitions for the id. Adding a
// duplicate id is an error: rings are identities, not caches.
func (mr *MultiRing) Add(id RingID, m int) (*Ring, error) {
	if _, ok := mr.rings[id]; ok {
		return nil, fmt.Errorf("ring %s already exists", id)
	}
	r, err := New(id.String(), m)
	if err != nil {
		return nil, err
	}
	mr.rings[id] = r
	return r, nil
}

// Ring returns the ring for the id, or nil.
func (mr *MultiRing) Ring(id RingID) *Ring { return mr.rings[id] }

// Len returns the number of registered rings.
func (mr *MultiRing) Len() int { return len(mr.rings) }

// IDs returns the ring ids sorted by (App, Class) for deterministic
// iteration.
func (mr *MultiRing) IDs() []RingID {
	ids := make([]RingID, 0, len(mr.rings))
	for id := range mr.rings {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].App != ids[j].App {
			return ids[i].App < ids[j].App
		}
		return ids[i].Class < ids[j].Class
	})
	return ids
}

// TotalPartitions sums the partition counts of every ring.
func (mr *MultiRing) TotalPartitions() int {
	n := 0
	for _, r := range mr.rings {
		n += r.Len()
	}
	return n
}
