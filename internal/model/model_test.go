package model

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 16 {
		t.Fatalf("catalog has %d models, want 16 (paper Table 1 + 1.3B/13B variants)", len(cat))
	}
	seen := map[string]bool{}
	for _, m := range cat {
		if m == nil {
			t.Fatal("nil model in catalog")
		}
		if seen[m.Name] {
			t.Fatalf("duplicate model %s", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestLayerCounts pins the partitionable-unit counts to paper Table 7:
// each transformer model has its layer count plus one head unit;
// Wide-ResNet has stem + bottlenecks + head.
func TestLayerCounts(t *testing.T) {
	cases := []struct {
		name string
		want int
	}{
		{"gpt3-1.3b", 25},
		{"gpt3-2.7b", 33},
		{"gpt3-6.7b", 33},
		{"gpt3-13b", 41},
		{"gpt3-175b", 97},
		{"bloom-3b", 31},
		{"bloom-7b", 31},
		{"bloom-176b", 71},
		{"bert-0.1b", 13},
		{"bert-0.3b", 25},
		{"bert-1.3b", 25},
		{"t5-0.2b", 25},
		{"t5-0.7b", 49},
		{"t5-3b", 49},
		{"wide-resnet50", 18},
		{"wide-resnet101", 35},
	}
	for _, c := range cases {
		m, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Layers) != c.want {
			t.Errorf("%s: %d layers, want %d", c.name, len(m.Layers), c.want)
		}
	}
}

func TestParamCountsApproximate(t *testing.T) {
	// Parameter counts should land within 30% of the nominal size label
	// (labels are approximate in the papers too).
	cases := []struct {
		name   string
		approx float64 // billions
	}{
		{"gpt3-1.3b", 1.3},
		{"gpt3-2.7b", 2.7},
		{"gpt3-6.7b", 6.7},
		{"gpt3-13b", 13},
		{"gpt3-175b", 175},
		{"bloom-176b", 176},
		{"bert-1.3b", 1.3},
		{"wide-resnet101", 1.5},
	}
	for _, c := range cases {
		m, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(m.Params()) / 1e9
		if got < c.approx*0.7 || got > c.approx*1.3 {
			t.Errorf("%s: %.2fB params, want ~%.1fB", c.name, got, c.approx)
		}
	}
}

func TestPositiveCosts(t *testing.T) {
	for _, m := range Catalog() {
		for _, l := range m.Layers {
			if l.FwdCost <= 0 {
				t.Errorf("%s/%s: non-positive cost %v", m.Name, l.Name, l.FwdCost)
			}
		}
		if m.BwdFactor < 1 {
			t.Errorf("%s: BwdFactor %v < 1", m.Name, m.BwdFactor)
		}
	}
}

func TestHeadIsFinalLayer(t *testing.T) {
	for _, m := range Catalog() {
		last := m.Layers[len(m.Layers)-1].Name
		if last != "lm-head" && last != "fc" {
			t.Errorf("%s: final layer is %q, want a head", m.Name, last)
		}
	}
}

func TestT5DecoderHeavierThanEncoder(t *testing.T) {
	// Paper Appendix B.1: T5 decoder layers have an extra cross-attention
	// and are computationally heavier.
	m, err := T5("3b")
	if err != nil {
		t.Fatal(err)
	}
	var enc, dec float64
	for _, l := range m.Layers {
		switch {
		case strings.HasPrefix(l.Name, "encoder"):
			enc = l.FwdCost
		case strings.HasPrefix(l.Name, "decoder"):
			dec = l.FwdCost
		}
	}
	if dec <= enc {
		t.Fatalf("decoder cost %v <= encoder cost %v", dec, enc)
	}
	if r := dec / enc; r < 1.2 || r > 1.6 {
		t.Errorf("decoder/encoder ratio %v outside plausible [1.2, 1.6]", r)
	}
}

func TestBloomHeadLarge(t *testing.T) {
	// Bloom's 251k vocabulary makes its head far heavier than GPT-3's
	// relative to a transformer layer (Appendix B.1).
	bl, err := Bloom("3b")
	if err != nil {
		t.Fatal(err)
	}
	gp, err := GPT3("2.7b")
	if err != nil {
		t.Fatal(err)
	}
	rel := func(m *Model) float64 {
		head := m.Layers[len(m.Layers)-1].FwdCost
		return head / m.Layers[0].FwdCost
	}
	if rel(bl) <= rel(gp) {
		t.Errorf("bloom head/layer %.2f should exceed gpt-3's %.2f", rel(bl), rel(gp))
	}
	if r := rel(bl); r < 2 || r > 4 {
		t.Errorf("bloom-3b head is %.2f layer units; calibration targets [2, 4] (Table 7)", r)
	}
}

func TestStageCostsValidation(t *testing.T) {
	m, err := GPT3("1.3b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StageCosts([]int{0, 5, 25}); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	for _, bad := range [][]int{
		{0, 25},        // fine actually: one stage
		{1, 5, 25},     // does not start at 0
		{0, 5, 24},     // does not end at L
		{0, 5, 5, 25},  // empty stage
		{0, 25, 5, 25}, // decreasing
	} {
		_, err := m.StageCosts(bad)
		valid := bad[0] == 0 && bad[len(bad)-1] == len(m.Layers)
		if valid {
			for i := 1; i < len(bad); i++ {
				if bad[i] <= bad[i-1] {
					valid = false
				}
			}
		}
		if valid && err != nil {
			t.Errorf("partition %v rejected: %v", bad, err)
		}
		if !valid && err == nil {
			t.Errorf("partition %v accepted", bad)
		}
	}
}

// TestByNameMatchesCatalog holds ByName, which builds one model, to the
// catalog, which builds them all: every catalog name gives a model
// DeepEqual to its catalog entry, Names lists exactly the catalog's
// names, and a name its family's constructor accepts but the catalog
// does not list (gpt3-0.3b), a family prefix alone and a name that
// only starts like a catalog one are refused.
func TestByNameMatchesCatalog(t *testing.T) {
	var names []string
	for _, want := range Catalog() {
		names = append(names, want.Name)
		got, err := ByName(want.Name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("ByName(%q) = %+v, %v; want the catalog's %+v", want.Name, got, err, want)
		}
	}
	slices.Sort(names)
	if !slices.Equal(names, Names()) {
		t.Fatalf("Names() %v, catalog %v", Names(), names)
	}
	if _, err := GPT3("0.3b"); err != nil {
		t.Fatalf("GPT3(0.3b): %v", err)
	}
	for _, name := range []string{"gpt3-0.3b", "gpt3-", "wide-resnet", "wide-resnet18", "t5-3b ", "GPT3-1.3b", ""} {
		if m, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) = %s, want refused", name, m.Name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("llama-70b"); err == nil {
		t.Error("ByName should fail for unknown model")
	}
	if _, err := GPT3("4b"); err == nil {
		t.Error("GPT3(4b) should fail")
	}
	if _, err := Bloom("1b"); err == nil {
		t.Error("Bloom(1b) should fail")
	}
	if _, err := BERT("9b"); err == nil {
		t.Error("BERT(9b) should fail")
	}
	if _, err := T5("11b"); err == nil {
		t.Error("T5(11b) should fail")
	}
	if _, err := WideResNet("152"); err == nil {
		t.Error("WideResNet(152) should fail")
	}
}

func TestNamesSorted(t *testing.T) {
	ns := Names()
	if len(ns) != 16 {
		t.Fatalf("Names() returned %d entries", len(ns))
	}
	for i := 1; i < len(ns); i++ {
		if ns[i] < ns[i-1] {
			t.Fatalf("Names() not sorted at %d: %s < %s", i, ns[i], ns[i-1])
		}
	}
}
