package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 3 {
		t.Fatal("OnlyTested")
	}
}
