// Command badmod makes the known-bad fixture a whole program, so the
// whole-program passes judge it: reach finds every seed live through
// the package vars below each seed file, and knob flags the one
// Options field this program never sets.
package main

import (
	"fmt"

	"badmod/par"
)

func main() {
	fmt.Println(par.Options{Workers: 2})
}
