package experiments

import "testing"

// The default benchmark was once spelled Benchmarks[4], and the case
// study Benchmarks[0] — magic indexes that silently change meaning
// whenever the table is reordered. The named benchmarks must stay pinned
// to the entries every defaulting path (CLI commands, server job specs)
// and every case-study experiment relies on.
func TestDefaultBenchmarkIsCapsnetMNISTLike(t *testing.T) {
	for key, b := range map[string]Benchmark{
		"capsnet-mnist-like":  DefaultBenchmark,
		"deepcaps-cifar-like": CaseStudyBenchmark,
	} {
		if got := b.Key(); got != key {
			t.Fatalf("benchmark = %q, want %s", got, key)
		}
		found, err := FindBenchmark(key)
		if err != nil {
			t.Fatal(err)
		}
		if found != b {
			t.Fatalf("FindBenchmark(%q) = %+v, differs from %+v", key, found, b)
		}
	}
}
