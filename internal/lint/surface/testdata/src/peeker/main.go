// Command peeker pushes onto the stack fixture, then prints its top and
// its depth.
package main

import (
	"fmt"

	"clumsy/internal/lint/surface/testdata/src/stack"
)

func main() {
	var s stack.Stack
	s.Push(1)
	fmt.Println(s.Peek(), s.Depth)
}
