// Package model provides the large-model zoo used in the Perseus paper's
// evaluation (§6.1, Appendix B): GPT-3, Bloom, BERT, T5, and Wide-ResNet,
// in the same size variants.
//
// The paper profiles per-layer forward latency on real GPUs; this package
// substitutes an analytic per-layer forward-FLOPs model (2 FLOPs per
// multiply-accumulate). Relative layer costs are what drive pipeline stage
// imbalance and therefore intrinsic energy bloat, so the models are
// calibrated — via a per-family language-model-head efficiency factor — to
// reproduce the minimum imbalance ratios of paper Table 1 within a few
// percent. The head factor reflects that a single large vocabulary GEMM
// sustains much higher utilization than the memory-bound attention kernels
// inside a transformer layer, so its measured latency is smaller than its
// FLOP count suggests.
package model

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Layer is one partitionable unit of a model: a transformer layer, a
// Wide-ResNet bottleneck (three convolutions wrapped with a skip
// connection, paper Appendix B.1), the stem, or the language-model /
// classification head.
type Layer struct {
	// Name identifies the layer, e.g. "decoder17" or "lm-head".
	Name string

	// FwdCost is the relative forward computation cost for a single
	// sample (one sequence or one image). It is an effective-FLOPs
	// figure: raw FLOPs scaled by a kernel-efficiency factor, so that
	// cost ratios match measured latency ratios.
	FwdCost float64

	// Params is the number of parameters in the layer.
	Params int64
}

// Model is a partitionable large model.
type Model struct {
	// Name is the variant name as used in the paper, e.g. "gpt3-1.3b".
	Name string

	// Family is one of "gpt3", "bloom", "bert", "t5", "wide-resnet".
	Family string

	// Layers lists partitionable units in execution order. The head is
	// always the final layer, matching the paper's partition tables
	// (Appendix B Table 7), where e.g. GPT-3 1.3B has 25 units: 24
	// transformer layers plus the language-model head.
	Layers []Layer

	// SeqLen is the training sequence length (transformers only).
	SeqLen int

	// Hidden is the model dimension (transformers only).
	Hidden int

	// Vocab is the vocabulary size (transformers only).
	Vocab int

	// BwdFactor is the ratio of backward to forward computation cost.
	// Backward computes roughly twice the forward FLOPs; with activation
	// recomputation enabled (paper §5) the backward pass also replays
	// the forward, giving a factor near 3 for transformers.
	BwdFactor float64
}

// LayerCosts returns the per-layer forward costs in order.
func (m *Model) LayerCosts() []float64 {
	cs := make([]float64, len(m.Layers))
	for i, l := range m.Layers {
		cs[i] = l.FwdCost
	}
	return cs
}

// Params returns the total parameter count.
func (m *Model) Params() int64 {
	var p int64
	for _, l := range m.Layers {
		p += l.Params
	}
	return p
}

// StageCosts sums per-layer forward costs into per-stage costs for a
// partition expressed as boundary indices [0, b1, ..., len(Layers)]
// (the format of paper Table 7).
func (m *Model) StageCosts(partition []int) ([]float64, error) {
	if len(partition) < 2 || partition[0] != 0 || partition[len(partition)-1] != len(m.Layers) {
		return nil, fmt.Errorf("model: partition %v does not cover %d layers", partition, len(m.Layers))
	}
	costs := make([]float64, len(partition)-1)
	for s := 0; s < len(partition)-1; s++ {
		if partition[s+1] <= partition[s] {
			return nil, fmt.Errorf("model: empty stage %d in partition %v", s, partition)
		}
		for i := partition[s]; i < partition[s+1]; i++ {
			costs[s] += m.Layers[i].FwdCost
		}
	}
	return costs, nil
}

// Per-family efficiency of the language-model head GEMM relative to
// transformer-layer kernels, calibrated against paper Table 1 (see the
// package comment). Bloom's 251k-token vocabulary head runs a very large,
// highly efficient GEMM, hence the lower factor.
const (
	gptHeadEff   = 0.75
	bertHeadEff  = 0.75
	t5HeadEff    = 0.75
	bloomHeadEff = 0.42
)

// transformerLayerCost returns the forward FLOPs per token of one
// transformer layer: QKV/output projections (8·h·a), attention score and
// value products (4·s·a), and the feed-forward network (4·h·dff).
func transformerLayerCost(h, a, dff, s int) float64 {
	return float64(8*h*a) + float64(4*s*a) + float64(4*h*dff)
}

// crossAttentionCost returns the additional forward FLOPs per token of a
// decoder layer's cross-attention over an encoder output of length s.
func crossAttentionCost(h, a, s int) float64 {
	return float64(8*h*a) + float64(4*s*a)
}

// headCost returns the effective forward FLOPs per token of the
// language-model head projecting hidden size h onto vocabulary v.
func headCost(h, v int, eff float64) float64 {
	return float64(2*h*v) * eff
}

func decoderOnly(name, family string, h, layers, vocab, seq, dff int, headEff float64) *Model {
	a := h
	layerParams := int64(4*h*a + 2*h*dff) // QKVO + FFN weights
	m := &Model{
		Name:      name,
		Family:    family,
		SeqLen:    seq,
		Hidden:    h,
		Vocab:     vocab,
		BwdFactor: 2.0,
	}
	perTok := transformerLayerCost(h, a, dff, seq)
	for i := 0; i < layers; i++ {
		m.Layers = append(m.Layers, Layer{
			Name:    fmt.Sprintf("layer%d", i),
			FwdCost: perTok * float64(seq),
			Params:  layerParams,
		})
	}
	m.Layers = append(m.Layers, Layer{
		Name:    "lm-head",
		FwdCost: headCost(h, vocab, headEff) * float64(seq),
		Params:  int64(h * vocab),
	})
	return m
}

// GPT3 returns a GPT-3 variant: "0.3b", "1.3b", "2.7b", "6.7b", "13b" or
// "175b" (configurations from Brown et al., as used in paper Tables 7-10;
// Table 1 labels 1.3b/2.7b/6.7b as 1B/3B/7B; 0.3b appears in Appendix D's
// fit-quality figure).
func GPT3(size string) (*Model, error) {
	type cfg struct{ h, l int }
	cfgs := map[string]cfg{
		"0.3b": {1024, 24},
		"1.3b": {2048, 24},
		"2.7b": {2560, 32},
		"6.7b": {4096, 32},
		"13b":  {5120, 40},
		"175b": {12288, 96},
	}
	c, ok := cfgs[size]
	if !ok {
		return nil, fmt.Errorf("model: unknown GPT-3 size %q", size)
	}
	return decoderOnly("gpt3-"+size, "gpt3", c.h, c.l, 50257, 2048, 4*c.h, gptHeadEff), nil
}

// Bloom returns a Bloom variant: "3b", "7b" or "176b" (BigScience
// Workshop configurations; 250,880-token vocabulary).
func Bloom(size string) (*Model, error) {
	type cfg struct{ h, l int }
	cfgs := map[string]cfg{
		"3b":   {2560, 30},
		"7b":   {4096, 30},
		"176b": {14336, 70},
	}
	c, ok := cfgs[size]
	if !ok {
		return nil, fmt.Errorf("model: unknown Bloom size %q", size)
	}
	return decoderOnly("bloom-"+size, "bloom", c.h, c.l, 250880, 2048, 4*c.h, bloomHeadEff), nil
}

// BERT returns a BERT variant: "0.1b" (base), "0.3b" (large) or "1.3b"
// (the paper's bert-huge-uncased with hidden dimension 2048, Appendix B.4).
func BERT(size string) (*Model, error) {
	type cfg struct{ h, l int }
	cfgs := map[string]cfg{
		"0.1b": {768, 12},
		"0.3b": {1024, 24},
		"1.3b": {2048, 24},
	}
	c, ok := cfgs[size]
	if !ok {
		return nil, fmt.Errorf("model: unknown BERT size %q", size)
	}
	return decoderOnly("bert-"+size, "bert", c.h, c.l, 30522, 512, 4*c.h, bertHeadEff), nil
}

// T5 returns a T5 variant: "0.2b" (t5-base), "0.7b" (t5-large) or "3b"
// (t5-3b, also labelled 2.9B in paper Table 1). T5 stacks encoder layers
// followed by computationally heavier decoder layers with cross-attention
// (paper Appendix B.1).
func T5(size string) (*Model, error) {
	type cfg struct{ h, a, dff, l int }
	cfgs := map[string]cfg{
		"0.2b": {768, 768, 3072, 12},
		"0.7b": {1024, 1024, 4096, 24},
		"3b":   {1024, 4096, 16384, 24},
	}
	c, ok := cfgs[size]
	if !ok {
		return nil, fmt.Errorf("model: unknown T5 size %q", size)
	}
	const seq, vocab = 512, 32128
	m := &Model{
		Name:      "t5-" + size,
		Family:    "t5",
		SeqLen:    seq,
		Hidden:    c.h,
		Vocab:     vocab,
		BwdFactor: 2.0,
	}
	encTok := transformerLayerCost(c.h, c.a, c.dff, seq)
	decTok := encTok + crossAttentionCost(c.h, c.a, seq)
	encParams := int64(4*c.h*c.a + 2*c.h*c.dff)
	decParams := encParams + int64(4*c.h*c.a)
	for i := 0; i < c.l; i++ {
		m.Layers = append(m.Layers, Layer{
			Name:    fmt.Sprintf("encoder%d", i),
			FwdCost: encTok * float64(seq),
			Params:  encParams,
		})
	}
	for i := 0; i < c.l; i++ {
		m.Layers = append(m.Layers, Layer{
			Name:    fmt.Sprintf("decoder%d", i),
			FwdCost: decTok * float64(seq),
			Params:  decParams,
		})
	}
	m.Layers = append(m.Layers, Layer{
		Name:    "lm-head",
		FwdCost: headCost(c.h, vocab, t5HeadEff) * float64(seq),
		Params:  int64(c.h * vocab),
	})
	return m, nil
}

// WideResNet returns a Wide-ResNet variant with width factor 8 as used in
// the paper (Appendix B.4): "50" (0.8B parameters) or "101" (1.5B). Each
// partitionable unit is a Bottleneck layer; partitioning in the middle of
// a skip connection is not supported by training frameworks (Appendix B.1),
// so bottlenecks are atomic.
func WideResNet(depth string) (*Model, error) {
	var blocks []int
	switch depth {
	case "50":
		blocks = []int{3, 4, 6, 3}
	case "101":
		blocks = []int{3, 4, 23, 3}
	default:
		return nil, fmt.Errorf("model: unknown Wide-ResNet depth %q", depth)
	}
	const widthFactor = 8
	m := &Model{
		Name:      "wide-resnet" + depth,
		Family:    "wide-resnet",
		BwdFactor: 2.0,
	}
	// Stem: 7x7 conv, 3->64 channels, output 112x112, then maxpool.
	m.Layers = append(m.Layers, Layer{
		Name:    "stem",
		FwdCost: 2 * 112 * 112 * 3 * 64 * 49 / 0.5,
		Params:  3 * 64 * 49,
	})
	planes := []int{64, 128, 256, 512}
	spatial := []int{56, 28, 14, 7} // output spatial size per group
	// Kernel efficiency per group: raw conv FLOPs are nearly uniform
	// across groups (channels double while spatial halves), but measured
	// latency is not — early groups with large spatial extents and small
	// channel GEMMs sustain lower utilization. Calibrated against paper
	// Table 1's Wide-ResNet imbalance ratios.
	groupEff := []float64{0.55, 0.70, 0.85, 1.0}
	inplanes := 64
	for g, nb := range blocks {
		p := planes[g]
		width := p * widthFactor
		out := p * 4
		s := spatial[g]
		inSpatial := s
		if g > 0 {
			inSpatial = 2 * s // stride-2 downsample at the first block
		} else {
			inSpatial = 56
		}
		for b := 0; b < nb; b++ {
			conv1Spatial := s
			var ds float64
			var dsParams int64
			if b == 0 {
				conv1Spatial = inSpatial
				ds = 2 * float64(s*s) * float64(inplanes*out)
				dsParams = int64(inplanes * out)
			}
			cost := (2*float64(conv1Spatial*conv1Spatial)*float64(inplanes*width) + // 1x1 in->width
				2*float64(s*s)*float64(width*width)*9 + // 3x3 width->width
				2*float64(s*s)*float64(width*out) + // 1x1 width->out
				ds) / groupEff[g]
			params := int64(inplanes*width) + int64(width*width)*9 + int64(width*out) + dsParams
			m.Layers = append(m.Layers, Layer{
				Name:    fmt.Sprintf("g%db%d", g+1, b),
				FwdCost: cost,
				Params:  params,
			})
			inplanes = out
		}
	}
	// Classification head: global average pool + fully connected layer.
	m.Layers = append(m.Layers, Layer{
		Name:    "fc",
		FwdCost: 2 * 2048 * 1000,
		Params:  2048 * 1000,
	})
	return m, nil
}

// catalog is the paper's model variants by family, in the order of
// Table 1: a variant's name is its family's prefix followed by its size.
var catalog = []struct {
	prefix string
	build  func(size string) (*Model, error)
	sizes  []string
}{
	{"gpt3-", GPT3, []string{"1.3b", "2.7b", "6.7b", "13b", "175b"}},
	{"bloom-", Bloom, []string{"3b", "7b", "176b"}},
	{"bert-", BERT, []string{"0.1b", "0.3b", "1.3b"}},
	{"t5-", T5, []string{"0.2b", "0.7b", "3b"}},
	{"wide-resnet", WideResNet, []string{"50", "101"}},
}

// ByName returns the catalog model with the given variant name (e.g.
// "gpt3-1.3b"), building that model alone.
func ByName(name string) (*Model, error) {
	for _, f := range catalog {
		if size, ok := strings.CutPrefix(name, f.prefix); ok && slices.Contains(f.sizes, size) {
			return f.build(size)
		}
	}
	return nil, fmt.Errorf("model: unknown model %q", name)
}

// Catalog returns every model variant evaluated in the paper, in the order
// of Table 1.
func Catalog() []*Model {
	var ms []*Model
	for _, f := range catalog {
		for _, size := range f.sizes {
			m, _ := f.build(size)
			ms = append(ms, m)
		}
	}
	return ms
}

// Names returns the catalog's variant names, sorted.
func Names() []string {
	var ns []string
	for _, f := range catalog {
		for _, size := range f.sizes {
			ns = append(ns, f.prefix+size)
		}
	}
	sort.Strings(ns)
	return ns
}
