// Package decomp is the known-bad smoke fixture for the tag-space
// analyzer's ExchangeTags checks: a step-path send outside the
// allocation, an allocated tag nothing uses, and (with package relay)
// a cross-subsystem collision on tag 0.
package decomp

import "badmod/mpi"

const tagBase = 0

// ExchangeTags allocates tags 0, 1 and 9; 9 is never used anywhere.
func ExchangeTags() []int {
	tags := make([]int, 0, 3)
	for d := 0; d < 2; d++ {
		tags = append(tags, tagBase+d)
	}
	return append(tags, 9)
}

// AdvanceScheme is the step-path root.
func AdvanceScheme(c *mpi.Comm) {
	exchange(c, tagBase)
	c.Send(1, 3, nil) // tag-space: 3 is outside the allocation
}

// exchange receives its tag base as a parameter; the analyzer resolves
// the base through the call graph.
func exchange(c *mpi.Comm, base int) {
	c.Send(1, base+0, nil)
	c.Send(1, base+1, nil)
}

// The overlap-order seed: a miniature of the overlapped halo schedule
// that reads the in-flight array before the finish.

type scalar struct{ data []float64 }

type region struct{ j0, j1 int }

type halo struct{ fields []*scalar }

type rank struct {
	interior region
	b        *scalar
}

func (r *rank) haloStart(fields []*scalar, tag int) halo { return halo{fields: fields} }

func (r *rank) haloFinish(ov *halo) {}

// overlapStep reads the exchanged array inside the overlap window
// instead of routing it through an interior-region kernel.
func (r *rank) overlapStep() float64 {
	ov := r.haloStart([]*scalar{r.b}, tagBase)
	x := r.b.data[0] // overlap-order: read between the post and the wait
	r.haloFinish(&ov)
	return x
}

// The seeds are live: reach roots initialized package vars.
var _ = []any{ExchangeTags, AdvanceScheme, (*rank).overlapStep}
