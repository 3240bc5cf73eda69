package exper

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"

	"dex/internal/apps"
)

// Static call-site counting backs Table I with verifiable numbers: the
// paper's metric is source lines changed to adapt each application; the
// direct analogue here is the number of DeX API call sites in each port,
// counted from the Go source with go/parser. The table prints audited
// constants — a built tool has no source tree to parse — and
// TestCountAPISites pins them against the source.

// SiteCounts summarizes the DeX API usage of one application source file.
type SiteCounts struct {
	// Migration is the number of Migrate/MigrateBack call sites — the
	// paper's "initial" conversion effort (§V-A: one call in, one out).
	Migration int
	// SharedMemory counts address-space call sites (Mmap, Read*, Write*,
	// atomics, Prefetch).
	SharedMemory int
	// Total is every DeX thread-API call site in the file.
	Total int
}

var migrationMethods = map[string]bool{
	"Migrate":     true,
	"MigrateBack": true,
}

var sharedMemoryMethods = map[string]bool{
	"Mmap": true, "Munmap": true, "Mprotect": true,
	"Read": true, "Write": true, "ReadReplicate": true,
	"ReadUint64": true, "WriteUint64": true,
	"ReadUint32": true, "WriteUint32": true,
	"ReadFloat64": true, "WriteFloat64": true,
	"AddUint64": true, "AddFloat64": true,
	"CompareAndSwapUint32": true, "Prefetch": true,
}

var otherThreadMethods = map[string]bool{
	"Spawn": true, "Join": true, "Compute": true, "Work": true,
	"FutexWait": true, "FutexWake": true, "SetSite": true,
}

// CountAPISites parses internal/apps/<app>.go (a test runs in its package's
// directory) and tallies DeX API call sites by category.
func CountAPISites(app string) (SiteCounts, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join("..", "apps", app+".go"), nil, 0)
	if err != nil {
		return SiteCounts{}, fmt.Errorf("exper: parse %s: %w", app, err)
	}
	var counts SiteCounts
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			// The shared workerSet helper, and its spawn half spawnWorkers,
			// encapsulate exactly the migrate-out/migrate-back pair of the
			// paper's conversion.
			if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "workerSet" || id.Name == "spawnWorkers") {
				counts.Migration += 2
				counts.Total += 2
			}
			return true
		}
		name := sel.Sel.Name
		switch {
		case migrationMethods[name]:
			counts.Migration++
			counts.Total++
		case sharedMemoryMethods[name]:
			counts.SharedMemory++
			counts.Total++
		case otherThreadMethods[name]:
			counts.Total++
		}
		return true
	})
	return counts, nil
}

func TestCountAPISites(t *testing.T) {
	audited := make(map[string]int)
	for _, e := range table1Entries {
		audited[e.name] = e.migrationSites
	}
	for _, app := range apps.All() {
		sc, err := CountAPISites(app.Name)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		// Every port has at least the migrate-out/migrate-back pair and
		// touches shared memory.
		if sc.Migration < 2 {
			t.Errorf("%s: migration sites = %d", app.Name, sc.Migration)
		}
		if sc.SharedMemory == 0 || sc.Total < sc.Migration+sc.SharedMemory {
			t.Errorf("%s: counts = %+v", app.Name, sc)
		}
		if want, ok := audited[app.Name]; !ok || sc.Migration != want {
			t.Errorf("%s: %d migration call sites in the source, Table I prints %d (listed: %v)", app.Name, sc.Migration, want, ok)
		}
	}
	if _, err := CountAPISites("no-such-app"); err == nil {
		t.Fatal("unknown app parsed")
	}
}
