package template

import (
	"strings"
	"testing"

	"ipsa/internal/pkt"
)

func validConfig() *Config {
	return &Config{
		Headers: []Header{
			{Name: "h", ID: 0, WidthBits: 16, SelOff: 8, SelWidth: 8,
				Transitions: []Transition{{Tag: 1, Next: 1}}},
			{Name: "h2", ID: 1, WidthBits: 8},
		},
		FirstHdr:  0,
		MetaBytes: 8,
		Actions:   map[string]*Action{"NoAction": {Name: "NoAction"}},
		Tables: map[string]*Table{
			"t": {Name: "t", Kind: "exact", KeyWidth: 8, Size: 4,
				Keys: []KeySel{{Name: "h.f", Operand: Operand{Kind: OpdHeader, Width: 8}}}},
		},
		Stages: map[string]*Stage{
			"s": {Name: "s", Pipe: "ingress", Tables: []string{"t"},
				Arms: []Arm{{Default: true, Action: "NoAction"}}},
		},
		IngressChain:  []string{"s"},
		TSPAssignment: map[string]int{"s": 0},
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	cfg := validConfig()
	b, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Headers) != 2 || got.Headers[0].SelWidth != 8 {
		t.Errorf("headers: %+v", got.Headers)
	}
	if got.Tables["t"].KeyWidth != 8 {
		t.Errorf("table: %+v", got.Tables["t"])
	}
	b2, _ := got.Marshal()
	if string(b) != string(b2) {
		t.Error("marshal not stable")
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Error("bad json accepted")
	}
	mutations := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"dup header id", func(c *Config) { c.Headers[0].Transitions = nil; c.Headers[1].ID = 0 }, "duplicate header id"},
		{"zero width", func(c *Config) { c.Headers[0].WidthBits = 0 }, "width"},
		{"bad transition", func(c *Config) { c.Headers[0].Transitions[0].Next = 9 }, "unknown id"},
		{"bad first", func(c *Config) { c.FirstHdr = 9 }, "first header"},
		{"table name mismatch", func(c *Config) { c.Tables["t"].Name = "x" }, "!= name"},
		{"no keys", func(c *Config) { c.Tables["t"].Keys = nil }, "no keys"},
		{"zero size", func(c *Config) { c.Tables["t"].Size = 0 }, "size"},
		{"unknown kind", func(c *Config) { c.Tables["t"].Kind = "fuzzy" }, "unknown match kind"},
		{"zero key width", func(c *Config) { c.Tables["t"].KeyWidth = 0 }, "key width"},
		{"LPM past 128 bits", func(c *Config) { c.Tables["t"].Kind, c.Tables["t"].KeyWidth = "lpm", 129 }, "LPM key"},
		{"selector not hash", func(c *Config) { c.Tables["t"].IsSelector = true }, "is_selector true with kind exact"},
		{"hash not selector", func(c *Config) { c.Tables["t"].Kind = "hash" }, "is_selector false with kind hash"},
		{"zero-width group", func(c *Config) {
			c.Tables["t"].Kind, c.Tables["t"].IsSelector, c.Tables["t"].Keys[0].Operand.Width = "hash", true, 0
		}, "key width 0"},
		{"stage name mismatch", func(c *Config) { c.Stages["s"].Name = "x" }, "!= name"},
		{"unknown stage table", func(c *Config) { c.Stages["s"].Tables = []string{"ghost"} }, "unknown table"},
		{"unknown arm action", func(c *Config) { c.Stages["s"].Arms[0].Action = "ghost" }, "unknown action"},
		{"bad chain", func(c *Config) { c.IngressChain = []string{"ghost"} }, "unknown stage"},
	}
	for _, m := range mutations {
		cfg := validConfig()
		m.mut(cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error %q lacks %q", m.name, err, m.want)
		}
	}
}

func TestHeaderLookups(t *testing.T) {
	cfg := validConfig()
	if h := cfg.HeaderByID(1); h == nil || h.Name != "h2" {
		t.Errorf("by id: %+v", h)
	}
	if h := cfg.HeaderByName("h"); h == nil || h.ID != pkt.HeaderID(0) {
		t.Errorf("by name: %+v", h)
	}
	if cfg.HeaderByID(9) != nil || cfg.HeaderByName("nope") != nil {
		t.Error("phantom header found")
	}
}

func TestCloneIsDeep(t *testing.T) {
	cfg := validConfig()
	cp, err := cfg.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cp.Tables["t"].Size = 99
	cp.Headers[0].WidthBits = 99
	if cfg.Tables["t"].Size == 99 || cfg.Headers[0].WidthBits == 99 {
		t.Error("clone shares storage")
	}
}

func TestIstdLayoutMatchesSem(t *testing.T) {
	// Pin the istd constants to the layout sem produces (in_port 16 bits
	// at 0, out_port 16 at 16, drop at 32, to_cpu at 33).
	if IstdInPortOff != 0 || IstdInPortWidth != 16 ||
		IstdOutPortOff != 16 || IstdOutPortWidth != 16 ||
		IstdDropOff != 32 || IstdToCPUOff != 33 || IstdBits != 34 {
		t.Error("istd constants drifted; sem.go istdFields must match")
	}
}
