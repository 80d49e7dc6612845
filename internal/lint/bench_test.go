package lint

import "testing"

// BenchmarkSpotlintTree runs the full analyzer suite over the real
// repository — the cost CI pays on every push. Load (parse + object
// resolution) dominates.
func BenchmarkSpotlintTree(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkgs, err := Load(root, nil)
		if err != nil {
			b.Fatal(err)
		}
		findings := Run(All(), pkgs)
		if len(findings) != 0 {
			b.Fatalf("repo not clean: %d findings", len(findings))
		}
	}
}
