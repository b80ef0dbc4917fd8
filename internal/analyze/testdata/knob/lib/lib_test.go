package lib

import "testing"

func TestExempt(t *testing.T) {
	c := Config{TestOnly: 1, Exempt: 2}
	if c.WithDefaults().Defaulted != 4 {
		t.Fatal("default")
	}
}
