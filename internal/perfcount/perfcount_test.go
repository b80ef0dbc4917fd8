package perfcount

import (
	"sync"
	"testing"
)

func TestCountersAccumulate(t *testing.T) {
	before := Read()
	AddFlops(100)
	AddVectorLoops(2, 500)
	AddScalarOps(7)
	AddComm(4096)
	s := Read().Sub(before)
	if s.Flops != 100 || s.VectorLoops != 2 || s.VectorElems != 500 || s.ScalarOps != 7 {
		t.Errorf("unexpected snapshot %+v", s)
	}
	if s.CommBytes != 4096 || s.CommMsgs != 1 {
		t.Errorf("comm counters %+v", s)
	}
}

func TestSub(t *testing.T) {
	AddFlops(10)
	before := Read()
	AddFlops(25)
	AddVectorLoops(1, 256)
	delta := Read().Sub(before)
	if delta.Flops != 25 || delta.VectorElems != 256 || delta.VectorLoops != 1 {
		t.Errorf("delta %+v", delta)
	}
}

func TestAverageVectorLength(t *testing.T) {
	s := Snapshot{VectorLoops: 4, VectorElems: 1000}
	if got := s.AverageVectorLength(); got != 250 {
		t.Errorf("avg vector length = %v, want 250", got)
	}
	if got := (Snapshot{}).AverageVectorLength(); got != 0 {
		t.Errorf("empty avg = %v, want 0", got)
	}
}

func TestVectorOperationRatio(t *testing.T) {
	s := Snapshot{VectorElems: 99, ScalarOps: 1}
	if got := s.VectorOperationRatio(); got != 0.99 {
		t.Errorf("ratio = %v, want 0.99", got)
	}
	if got := (Snapshot{}).VectorOperationRatio(); got != 0 {
		t.Errorf("empty ratio = %v, want 0", got)
	}
}

func TestConcurrentAdds(t *testing.T) {
	before := Read()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				AddFlops(1)
				AddVectorLoops(1, 10)
			}
		}()
	}
	wg.Wait()
	s := Read().Sub(before)
	if s.Flops != workers*per || s.VectorLoops != workers*per || s.VectorElems != workers*per*10 {
		t.Errorf("lost updates: %+v", s)
	}
}
