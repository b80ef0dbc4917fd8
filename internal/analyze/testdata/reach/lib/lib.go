// Package lib holds the declarations the reach fixture program keeps
// alive, next to the dead code reach must flag.
package lib

import "fmt"

// Analyzer mirrors analyze.Analyzer: All stores run only as a function
// value in a struct literal.
type Analyzer struct{ Run func() int }

func All() []Analyzer { return []Analyzer{{Run: run}} }

func run() int { return 1 }

// Celsius reaches String only through fmt.Stringer.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

// Level reaches MarshalText only through encoding.TextMarshaler, which
// json.Marshal consults for map keys.
type Level int

func (l Level) MarshalText() ([]byte, error) { return []byte("high"), nil }

// Counter's Bump is reached only as a method value.
type Counter struct{ N int }

func (c *Counter) Bump() { c.N++ }

// MaxOf is reached only through an instantiation.
func MaxOf[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// seeded is never read, but its initializer runs, so seed is live.
var seeded = seed()

func seed() int { return 2 }

func deadHelper() int { return 0 } // want "deadHelper is reached by no main package"

// OnlyTested is called from lib_test.go and nowhere else.
func OnlyTested() int { return 3 } // want "OnlyTested is reached by no main package; only tests reach it: lib_test.go"

//yyvet:ignore reach kept as a test's reference implementation
func suppressed() int { return 4 }

//yyvet:ignore reach main calls Live, so this directive is stale
func Live() int { return 5 }
