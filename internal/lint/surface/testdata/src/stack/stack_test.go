package stack

import "testing"

func TestPeek(t *testing.T) {
	var s Stack
	s.Push(3)
	if s.Peek() != 3 || s.Depth != 1 {
		t.Fatalf("Peek() = %d, Depth = %d after one Push(3)", s.Peek(), s.Depth)
	}
}
