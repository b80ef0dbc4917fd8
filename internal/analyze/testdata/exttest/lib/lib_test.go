package lib_test

import (
	"testing"

	"exttestfix/lib"
)

func TestDouble(t *testing.T) {
	if lib.Double(2) != 4 {
		t.Fatal("Double(2) != 4")
	}
}
