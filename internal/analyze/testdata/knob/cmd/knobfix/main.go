// Command knobfix sets the fields of package lib it keeps live, one
// write form the knob analyzer must count per field, and defines the
// flags the fixture's scripts/check.sh and main_test.go pass or not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"knobfix/lib"
)

func main() {
	c := lib.Config{Keyed: 1}                                             // keyed composite literal
	flag.IntVar(&c.Addressed, "n", 0, "address taken")                    // passed by scripts/check.sh
	dry := flag.Bool("dry", false, "named in the script, passed by none") // want "flag -dry of knobfix is passed by no scripts"
	quiet := flag.Bool("quiet", false, "passed by main_test.go")
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
	fmt.Println(lib.NodeID{1, 2}, c, sc, r, *dry, *quiet) // positional composite literal
	s := lib.Sink{Unread: 1, TestRead: 2, Shown: 3}
	show(s.Shown)
	show(lib.Stats{Printed: 4}) // read only by fmt, through show's parameter
}

// show hands its argument to fmt, so it reads every field v reaches.
func show(v any) { fmt.Println(v) }
