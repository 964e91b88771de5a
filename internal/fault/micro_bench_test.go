package fault

import "testing"

func BenchmarkInjectorNext(b *testing.B) {
	in := NewInjector(NewModel(1), NewRNG(1), 32)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= in.NextAt(uint64(i))
	}
	_ = sink
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
