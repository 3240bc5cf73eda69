package apps

import (
	"sync"
	"sync/atomic"
)

// What a run derives from (size, seed) alone — its generated input and the
// sequential reference result of that input — is the same in every cell of
// the evaluation grid, which varies variant and node count under one seed.
// Each application that spends real time there keeps the latest derivation
// in a package-level derived value and every run reads through it, so the
// derivation is built once per process per key. The rules (DESIGN.md,
// "Application inputs"):
//
//   - The key is (Size, normalised Seed). A derivation may read nothing
//     else of the Config; each app's *Sizes function depends on Size only.
//   - One entry per application and size, replaced when the seed changes:
//     a sweep varies variant and node count under one seed, and a full-size
//     sweep mixes in the few test-size cells of the ablations.
//   - What is kept is read-only after the build: runs copy it into the
//     simulated address space and compare against it, never write it.
//   - Only what is small, or dear per byte, is kept. A big input that is
//     cheap to regenerate is rebuilt by every run (grp's corpus) or drawn
//     straight into simulated memory (kmn's points), and only the reference
//     computed from it is kept.
//   - Every run still compares its own output with the reference.
type derived[T any] struct {
	mu  sync.Mutex
	cur map[Size]*derivation[T]
}

type derivation[T any] struct {
	seed int64
	once sync.Once
	val  T
}

// inputBuilds counts derivations built in this process; tests read it.
var inputBuilds atomic.Int64

// get returns the derivation for cfg's size and seed, running build if the
// size's entry holds another seed or nothing. cfg must be normalised (seed
// 0 ≡ 1). Concurrent callers with one key block on the one build.
func (d *derived[T]) get(cfg Config, build func() T) T {
	d.mu.Lock()
	e := d.cur[cfg.Size]
	if e == nil || e.seed != cfg.Seed {
		if d.cur == nil {
			d.cur = make(map[Size]*derivation[T])
		}
		e = &derivation[T]{seed: cfg.Seed}
		d.cur[cfg.Size] = e
	}
	d.mu.Unlock()
	e.once.Do(func() {
		e.val = build()
		inputBuilds.Add(1)
	})
	return e.val
}
