// Command reachfix reaches each declaration of package lib it keeps
// alive through one edge kind the reach analyzer follows.
package main

import (
	"encoding/json"
	"fmt"

	"reachfix/lib"
)

func main() {
	c := &lib.Counter{}
	inc := c.Bump // method value
	inc()
	data, _ := json.Marshal(map[lib.Level]int{1: 1}) // TextMarshaler
	fmt.Println(lib.All()[0].Run(), lib.Celsius(21.5), string(data), lib.MaxOf(1.5, 2), c.N, lib.Live())
}
