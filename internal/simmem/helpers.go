package simmem

// StoreString writes the bytes of str followed by a NUL terminator. It is
// written against the Memory interface so the same application code runs on
// the golden space and on the fault-injected cache hierarchy.
func StoreString(m Memory, a Addr, str string) error {
	for i := 0; i < len(str); i++ {
		if err := m.Store8(a+Addr(i), str[i]); err != nil {
			return err
		}
	}
	return m.Store8(a+Addr(len(str)), 0)
}
