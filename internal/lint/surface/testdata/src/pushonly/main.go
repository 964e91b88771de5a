// Command pushonly pushes onto the stack fixture and never peeks.
package main

import "clumsy/internal/lint/surface/testdata/src/stack"

func main() {
	var s stack.Stack
	s.Push(1)
}
