// Package stack is the surface test's fixture. Only its test calls Peek
// and reads Depth.
package stack

// Stack is a stack of ints.
type Stack struct {
	items []int
	Depth int // the depth after the last Push
}

// Push puts v on top.
func (s *Stack) Push(v int) {
	s.items = append(s.items, v)
	s.Depth = len(s.items)
}

// Peek returns the top value.
func (s *Stack) Peek() int { return s.items[len(s.items)-1] }
