package graph

import "testing"

func BenchmarkKronScale12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Kron(12, 16, GenOptions{Seed: uint64(i), Symmetrize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniformScale12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Uniform(12, 16, GenOptions{Seed: uint64(i), Symmetrize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKronScale17 builds the graph the pr-kron-droplet benchmark
// workload builds in its setup: Kron(17, 16), symmetrized.
func BenchmarkKronScale17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Kron(17, 16, GenOptions{Seed: uint64(i), Symmetrize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranspose times the counting-sort transpose, on a directed
// graph: a symmetrized one is its own transpose.
func BenchmarkTranspose(b *testing.B) {
	g, err := Kron(12, 16, GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Transpose()
	}
}

func BenchmarkDegreeStats(b *testing.B) {
	g, err := Kron(12, 16, GenOptions{Seed: 1, Symmetrize: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDegreeStats(g)
	}
}
