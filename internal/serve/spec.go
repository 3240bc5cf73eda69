package serve

import (
	"fmt"
	"time"

	"dex/internal/load"
)

// DefaultSpec builds the canonical multi-tenant traffic mix used by
// cmd/dexserve and dexbench's serve experiment: tenants cycle through three
// profiles — a rate-limited flat tenant with a hot Zipf head (its token
// bucket sheds deterministically), a step-ramp tenant that doubles its
// rate mid-run, and a diurnal tenant swinging around its base rate. Each
// tenant draws from a millions-strong simulated user population. full
// scales the traffic window and keyspaces up for the experiment harness.
func DefaultSpec(tenants int, full bool, seed int64) load.Spec {
	duration := 40 * time.Millisecond
	keyScale := 1
	if full {
		duration = 160 * time.Millisecond
		keyScale = 4
	}
	spec := load.Spec{Seed: seed, Duration: duration}
	for i := 0; i < tenants; i++ {
		var t load.TenantSpec
		switch i % 3 {
		case 0:
			t = load.TenantSpec{
				Name:     fmt.Sprintf("flat%d", i),
				Keys:     512 * keyScale,
				Zipf:     1.1,
				Users:    2_000_000,
				RPS:      30000,
				ReadFrac: 0.7,
				LimitRPS: 20000,
				Burst:    32,
			}
		case 1:
			t = load.TenantSpec{
				Name:     fmt.Sprintf("step%d", i),
				Keys:     256 * keyScale,
				Zipf:     0.8,
				Users:    4_000_000,
				RPS:      15000,
				ReadFrac: 0.5,
				Phases: []load.Phase{
					{Start: 0, Factor: 0.5},
					{Start: duration / 2, Factor: 2},
				},
			}
		default:
			t = load.TenantSpec{
				Name:     fmt.Sprintf("wave%d", i),
				Keys:     1024 * keyScale,
				Zipf:     0.9,
				Users:    3_000_000,
				RPS:      20000,
				ReadFrac: 0.9,
				Phases:   load.Diurnal(duration, duration/2, 0.6, 8),
			}
		}
		spec.Tenants = append(spec.Tenants, t)
	}
	return spec
}
