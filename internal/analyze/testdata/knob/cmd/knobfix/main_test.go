package main

import "testing"

// TestQuiet passes -quiet, which no script does.
func TestQuiet(t *testing.T) {
	if args := []string{"-quiet"}; len(args) != 1 {
		t.Fatal(args)
	}
}
