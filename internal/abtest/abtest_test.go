package abtest

import (
	"testing"
	"time"
)

// TestInterleaveOrdersSides checks the ratio's direction and its
// quartiles on two sides whose costs differ by far more than
// scheduling noise.
func TestInterleaveOrdersSides(t *testing.T) {
	slow := func() { time.Sleep(4 * time.Millisecond) }
	fast := func() { time.Sleep(time.Millisecond) }
	r := Interleave(slow, fast, 5)
	if r.Median <= 1 || r.Q1 > r.Median || r.Median > r.Q3 {
		t.Fatalf("Interleave(slow, fast) = %+v, want median > 1 and Q1 <= median <= Q3", r)
	}
	if r := Interleave(fast, slow, 5); r.Median >= 1 {
		t.Fatalf("Interleave(fast, slow) = %+v, want median < 1", r)
	}
}
