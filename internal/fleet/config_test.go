package fleet

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestConfigKnobs walks the configuration table: for every knob, zero
// resolves to its Default*, the edge of its range is used as given, and
// one step past the edge makes NewServer fail with an error naming the
// knob. Every row runs over MaxMovesPerRound 7, so StormBudget's zero
// must resolve to that, not to DefaultMaxMovesPerRound.
func TestConfigKnobs(t *testing.T) {
	type field = func(*ServerConfig, *InventoryConfig) any
	for _, k := range []struct {
		name       string
		field      field
		def        float64
		edge, past float64
	}{
		{"PollInterval", func(c *ServerConfig, _ *InventoryConfig) any { return &c.PollInterval }, float64(DefaultPollInterval), 1, -1},
		{"RebalanceInterval", func(c *ServerConfig, _ *InventoryConfig) any { return &c.RebalanceInterval }, float64(DefaultRebalanceInterval), 1, -1},
		{"MaxMovesPerRound", func(c *ServerConfig, _ *InventoryConfig) any { return &c.MaxMovesPerRound }, DefaultMaxMovesPerRound, 1, -1},
		{"Threshold", func(c *ServerConfig, _ *InventoryConfig) any { return &c.Threshold }, DefaultThreshold, 1, math.Nextafter(1, 2)},
		{"Threshold", func(c *ServerConfig, _ *InventoryConfig) any { return &c.Threshold }, DefaultThreshold, 1e-9, -1e-9},
		{"StormFraction", func(c *ServerConfig, _ *InventoryConfig) any { return &c.StormFraction }, DefaultStormFraction, 1, math.Nextafter(1, 2)},
		{"StormBudget", func(c *ServerConfig, _ *InventoryConfig) any { return &c.StormBudget }, 7, 1, -1},
		{"AdmissionCap", func(c *ServerConfig, _ *InventoryConfig) any { return &c.AdmissionCap }, DefaultAdmissionCap, 1, -1},
		{"CooldownRounds", func(c *ServerConfig, _ *InventoryConfig) any { return &c.CooldownRounds }, DefaultCooldownRounds, -1, -2},
		{"FailAfter", func(_ *ServerConfig, c *InventoryConfig) any { return &c.FailAfter }, DefaultFailAfter, 1, -1},
		{"FlapCount", func(_ *ServerConfig, c *InventoryConfig) any { return &c.FlapCount }, DefaultFlapCount, -1, -2},
		{"FlapWindow", func(_ *ServerConfig, c *InventoryConfig) any { return &c.FlapWindow }, float64(DefaultFlapWindow), 1, -1},
		{"QuarantineBackoff", func(_ *ServerConfig, c *InventoryConfig) any { return &c.QuarantineBackoff }, float64(DefaultQuarantineBackoff), 1, -1},
	} {
		// resolve builds a server with the knob at v and reads it back.
		resolve := func(v float64) (float64, error) {
			cfg := ServerConfig{MaxMovesPerRound: 7}
			var icfg InventoryConfig
			setKnob(k.field(&cfg, &icfg), v)
			cfg.Inventory = NewInventory(icfg)
			srv, err := NewServer(cfg)
			if err != nil {
				return 0, err
			}
			cfg = srv.Config()
			return knobValue(k.field(&cfg, &cfg.Inventory.cfg)), nil
		}
		for _, v := range []float64{0, k.edge} {
			want := v
			if v == 0 {
				want = k.def
			}
			if got, err := resolve(v); err != nil || got != want {
				t.Errorf("%s %v resolves to %v (err %v), want %v", k.name, v, got, err, want)
			}
		}
		if _, err := resolve(k.past); err == nil || !strings.Contains(err.Error(), k.name+" is ") {
			t.Errorf("%s %v: NewServer error %v, want one naming the knob", k.name, k.past, err)
		}
	}
}

func setKnob(p any, v float64) {
	switch p := p.(type) {
	case *int:
		*p = int(v)
	case *float64:
		*p = v
	case *time.Duration:
		*p = time.Duration(v)
	}
}

func knobValue(p any) float64 {
	switch p := p.(type) {
	case *int:
		return float64(*p)
	case *float64:
		return *p
	case *time.Duration:
		return float64(*p)
	}
	panic("unknown knob type")
}
