// Command exttestfix calls the one declaration of package lib, whose
// test sits in an external test package.
package main

import (
	"fmt"

	"exttestfix/lib"
)

func main() {
	fmt.Println(lib.Double(21))
}
