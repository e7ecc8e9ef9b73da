// Package vclock implements vector clocks for the Skute prototype store.
// Each replica coordinator increments its own component on every write;
// comparing clocks decides whether two versions of a key are ordered
// (one supersedes the other) or concurrent (siblings the client must
// reconcile), exactly as in Dynamo-style stores.
package vclock

import (
	"fmt"
	"slices"
	"strconv"
)

// VC maps a node name to its logical counter. The zero value (nil map) is
// a valid, empty clock.
type VC map[string]uint64

// New returns an empty clock.
func New() VC { return make(VC) }

// Clone returns an independent copy.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	for k, n := range v {
		c[k] = n
	}
	return c
}

// Tick increments the component of the node and returns the clock for
// chaining. Tick on a nil clock allocates.
func (v VC) Tick(node string) VC {
	if v == nil {
		v = New()
	}
	v[node]++
	return v
}

// Get returns the counter of the node (0 when absent).
func (v VC) Get(node string) uint64 { return v[node] }

// Ordering is the result of comparing two vector clocks.
type Ordering int

// Orderings.
const (
	Equal Ordering = iota
	Before
	After
	Concurrent
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("ordering(%d)", int(o))
	}
}

// Compare returns the causal relation of v to other: Before when v
// happened-before other, After when it supersedes it, Equal for identical
// clocks, Concurrent otherwise.
func (v VC) Compare(other VC) Ordering {
	vLess, oLess := false, false // some component strictly smaller
	for k, n := range v {
		if on := other[k]; n > on {
			oLess = true
		} else if n < on {
			vLess = true
		}
	}
	for k, on := range other {
		if n := v[k]; on > n {
			vLess = true
		} else if on < n {
			oLess = true
		}
	}
	switch {
	case vLess && oLess:
		return Concurrent
	case vLess:
		return Before
	case oLess:
		return After
	default:
		return Equal
	}
}

// Descends reports whether v causally dominates or equals other, i.e.
// accepting a write carrying clock v may overwrite a version carrying
// other.
func (v VC) Descends(other VC) bool {
	o := v.Compare(other)
	return o == Equal || o == After
}

// Merge returns a new clock with the component-wise maximum of both
// clocks — the clock of a reconciled value.
func Merge(a, b VC) VC {
	m := make(VC, len(a)+len(b))
	for k, n := range a {
		m[k] = n
	}
	for k, n := range b {
		if n > m[k] {
			m[k] = n
		}
	}
	return m
}

// String renders the clock deterministically, e.g. "{a:1, b:3}".
func (v VC) String() string { return string(v.AppendString(nil)) }

// AppendString appends the String form of the clock to dst: the node
// names in sorted order, each with its counter. It allocates nothing for
// a clock of up to eight entries once dst has room, so the store can
// hash clocks on every write.
func (v VC) AppendString(dst []byte) []byte {
	var small [8]string
	names := small[:0]
	for k := range v {
		names = append(names, k)
	}
	slices.Sort(names)
	dst = append(dst, '{')
	for i, k := range names {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, k...)
		dst = append(dst, ':')
		dst = strconv.AppendUint(dst, v[k], 10)
	}
	return append(dst, '}')
}
