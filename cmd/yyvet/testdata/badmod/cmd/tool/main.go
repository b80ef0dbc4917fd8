// Command tool seeds knob's flag and read rules: no script or test
// passes its flag, and nothing reads the Stats field it sets.
package main

import (
	"flag"

	"badmod/par"
)

func main() {
	n := flag.Int("n", 1, "tiles") // knob: passed by no script or test
	flag.Parse()
	_ = par.Stats{Tiles: *n}
}
