package microarch

import (
	"strings"
	"testing"
)

func TestValidateDescriptiveErrors(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	cases := map[string]func(*Config){
		"LineSize":    func(c *Config) { c.LineSize = 48 },
		"PageSize":    func(c *Config) { c.PageSize = 1000 },
		"L1ISets":     func(c *Config) { c.L1ISets = 48 },
		"L1DSets":     func(c *Config) { c.L1DSets = 0 },
		"LLCSets":     func(c *Config) { c.LLCSets = -4 },
		"L1IWays":     func(c *Config) { c.L1IWays = 0 },
		"L1DWays":     func(c *Config) { c.L1DWays = -1 },
		"LLCWays":     func(c *Config) { c.LLCWays = 0 },
		"ITLBEntries": func(c *Config) { c.ITLBEntries = 0 },
		"DTLBEntries": func(c *Config) { c.DTLBEntries = -2 },
		"BPTableBits": func(c *Config) { c.BPTableBits = 0 },
	}
	for field, mut := range cases {
		cfg := DefaultConfig()
		mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", field)
			continue
		}
		if !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error %q does not name the offending field", field, err)
		}
	}
	// Several bad fields are all reported at once.
	cfg := DefaultConfig()
	cfg.L1ISets = 48
	cfg.PageSize = 1000
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "L1ISets") || !strings.Contains(err.Error(), "PageSize") {
		t.Fatalf("multi-field error incomplete: %v", err)
	}
}

func TestNormalizeRoundsUp(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Normalize() != cfg {
		t.Fatal("Normalize of a valid config is not the identity")
	}
	cfg.L1ISets = 48
	cfg.LineSize = 40
	cfg.ITLBEntries = 0
	cfg.BPTableBits = 40
	n := cfg.Normalize()
	if n.L1ISets != 64 || n.LineSize != 64 || n.ITLBEntries != 1 || n.BPTableBits != 30 {
		t.Fatalf("Normalize = %+v", n)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("normalized config still invalid: %v", err)
	}
}

// TestNewNormalizesNonPowerOfTwo is the regression pin for the silent
// mis-indexing: a 48-set cache used to mask with 47, making every set
// with bit 4 set unreachable and aliasing their lines elsewhere. New
// now rounds the geometry up, so the non-power-of-two config behaves
// exactly like its normalized form on any access stream.
func TestNewNormalizesNonPowerOfTwo(t *testing.T) {
	bad := DefaultConfig()
	bad.L1ISets = 48
	bad.LLCSets = 1000
	bad.PageSize = 3000
	good := bad.Normalize()
	a, b := New(bad), New(good)
	if a.Config() != b.Config() {
		t.Fatalf("New kept the invalid geometry: %+v", a.Config())
	}
	seed := uint64(12345)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	}
	for i := 0; i < 20_000; i++ {
		addr := next() % (1 << 22)
		switch i % 3 {
		case 0:
			if a.Fetch(addr, 16) != b.Fetch(addr, 16) {
				t.Fatalf("Fetch diverged at access %d", i)
			}
		case 1:
			if a.Data(addr) != b.Data(addr) {
				t.Fatalf("Data diverged at access %d", i)
			}
		default:
			taken := addr&1 == 0
			if a.Branch(addr, taken) != b.Branch(addr, taken) {
				t.Fatalf("Branch diverged at access %d", i)
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	// The normalized cache actually uses every set: with 64 sets of
	// 8 ways and far more than 512 distinct hot lines, every set's
	// recency stack must fill completely (the old masking bug left
	// whole sets cold).
	full := 0
	for _, n := range a.l1i.fill {
		full += int(n)
	}
	if full != len(a.l1i.tags) {
		t.Fatalf("only %d/%d L1I lines ever filled — sets unreachable", full, len(a.l1i.tags))
	}
}
