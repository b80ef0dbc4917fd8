// Command knobfix sets the fields of package lib it keeps live, one
// write form the knob analyzer must count per field.
package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"knobfix/lib"
)

func main() {
	c := lib.Config{Keyed: 1} // keyed composite literal
	flag.IntVar(&c.Addressed, "n", 0, "address taken")
	c.Slots[0] = 2           // element write
	copy(c.Buf, []byte("x")) // copy into the field
	c.Count.Add(1)           // pointer-method call
	var sc lib.Scenario
	_ = json.Unmarshal([]byte(`{"Name":"a"}`), &sc) // decoded
	r := &lib.Report{}
	for _, v := range []int{3, 1} {
		if v > r.Max { // a running max, not a default
			r.Max = v
		}
		r.Seen++ // increment
	}
	c = c.WithDefaults()
	fmt.Println(lib.NodeID{1, 2}, c, sc, r) // positional composite literal
}
