// Package deadcode exercises the deadcode analyzer's roots and edges.
// Package deadmain calls Entry; every other function here is live only
// through one of the rules the analyzer documents.
package deadcode

import (
	"fmt"
	"go/types"
)

// Entry is the only function main calls directly.
func Entry() {
	apply(double) // function value: double is live
	var c counter
	inc := c.inc // method value: inc is live
	inc()
	var s shape = square{}
	_ = s.area() // in-module interface dispatch: square.area is live
	st := &stack[int]{}
	st.push(1) // generic method, reached through its instantiation
	fmt.Println(label(1))
}

func apply(f func(int) int) int { return f(2) }

func double(x int) int { return 2 * x }

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

func (c *counter) reset() { c.n = 0 } // want `deadcode\.\(\*counter\)\.reset is unreachable`

type shape interface{ area() int }

type square struct{}

func (square) area() int { return 1 }

type stack[T any] struct{ items []T }

func (s *stack[T]) push(x T) { s.items = append(s.items, x) }

// label implements fmt.Stringer: fmt calls String through its own
// interface, which the module call graph never sees.
type label int

func (l label) String() string { return fmt.Sprintf("label%d", int(l)) }

// importer implements types.Importer; no module code calls Import, but
// go/types would.
type importer struct{}

func (importer) Import(path string) (*types.Package, error) { return nil, fmt.Errorf("no %s", path) }

// handlers is a package-level initializer: what it references is live.
var handlers = map[string]func() int{"one": one}

func one() int { return 1 }

func init() { setup() }

func setup() {}

// Kept is unreachable but kept on purpose; the allow also keeps what it
// calls.
//
//lint:allow deadcode(fixture: a deliberate keep)
func Kept() int { return keptHelper() }

func keptHelper() int { return 3 }

func Unused() int { return double(1) } // want `deadcode\.Unused is unreachable from every main`
