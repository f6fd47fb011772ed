package frontier

import (
	"testing"

	"perseus/internal/gpu"
)

// CharacterizeGPT3 characterizes gpt3-1.3b on A100 PCIe under 1F1B at
// 4 stages × 6 microbatches, the shape the table tests use, for tests
// outside the package.
func CharacterizeGPT3(t *testing.T) *Frontier {
	g, p, opts := buildCase(t, "gpt3-1.3b", gpu.A100PCIe, 4, 6, 4, "1f1b")
	return characterize(t, g, p, opts)
}
