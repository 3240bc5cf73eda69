package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"dex/benchmark/workloads"
)

// Limits of the rate ladder: a rung counts as sustained when its p999
// stays under the latency limit, nothing is shed from a full queue, and
// the open loop finishes within the allowed overrun of its window.
const (
	ladderP999Limit    = 2 * time.Millisecond
	ladderOverrunLimit = 5 * time.Millisecond
)

// simulated derives everything an iteration's reports say about the
// simulated system: the simulated end-to-end metrics and the exact counts
// of the per-layer table. All of it is deterministic for one commit and
// seed, which is what the fingerprint relies on. Metrics that do not
// apply to the workload are absent.
func simulated(w *workloads.Workload, it workloads.Iteration) (map[string]float64, error) {
	m := map[string]float64{}
	add := func(name string, v float64) { m[name] += v }
	ratio := func(name string, num, den float64) {
		m[name] = 0
		if den > 0 {
			m[name] = num / den
		}
	}

	// Counts start at zero so that every workload reports every count.
	for _, n := range []string{
		"sim.events", "sim.windows", "sim.serialized_windows",
		"fabric.small_msgs", "fabric.page_msgs", "fabric.bytes", "fabric.pool_waits",
		"dsm.read_faults", "dsm.write_faults", "dsm.invalidations", "dsm.ownership_grants",
		"dsm.retransmits", "dsm.dups_ignored", "dsm.forwards", "dsm.pages_lost", "dsm.dir_rebuilt",
		"mem.tlb_hits", "mem.tlb_flushes",
		"core.migrations", "core.delegations", "core.vma_queries",
		"chaos.dropped", "chaos.duplicated", "chaos.nodes_lost", "chaos.threads_restarted",
		"chaos.pages_restored", "chaos.lease_suspects",
		"serve.offered", "serve.served", "serve.shed_429", "serve.shed_queue",
		"serve.republishes", "serve.reacks", "serve.restarts",
	} {
		m[n] = 0
	}

	var (
		virt                            time.Duration
		joins, nacks, faults            float64
		dirServes, originServes         float64
		hits, misses, recycled, frames  float64
		laneDispatches, parallelWindows float64
		offered, served, failedRuns     float64
		worstP50, worstP999, overrun    time.Duration
		worstGoodput, maxOK             float64
		isServe                         bool
	)
	for _, run := range it.Runs {
		virt += run.Elapsed
		if run.Err != nil {
			failedRuns++
		}
		if rep := run.Dex; rep != nil {
			add("sim.events", float64(rep.Sched.Events))
			add("sim.windows", float64(rep.Sched.Windows))
			add("sim.serialized_windows", float64(rep.Sched.SerializedWindows))
			laneDispatches += float64(rep.Sched.LaneDispatches)
			parallelWindows += float64(rep.Sched.Windows - rep.Sched.SerializedWindows)

			add("fabric.small_msgs", float64(rep.Net.SmallSends))
			add("fabric.page_msgs", float64(rep.Net.PageSends))
			add("fabric.bytes", float64(rep.Net.SmallBytes+rep.Net.PageBytes))
			add("fabric.pool_waits", float64(rep.Net.SendPoolWaits+rep.Net.RecvRNRStalls+rep.Net.SinkWaits))

			d := rep.DSM
			add("dsm.read_faults", float64(d.ReadFaults))
			add("dsm.write_faults", float64(d.WriteFaults))
			add("dsm.invalidations", float64(d.Invalidations))
			add("dsm.ownership_grants", float64(d.OwnershipGrants))
			add("dsm.retransmits", float64(d.Retransmits))
			add("dsm.dups_ignored", float64(d.DupsIgnored))
			add("dsm.forwards", float64(d.Forwards))
			add("dsm.pages_lost", float64(d.PagesLost))
			add("dsm.dir_rebuilt", float64(d.DirRebuilt))
			joins += float64(d.FollowerJoins)
			nacks += float64(d.Nacks)
			faults += float64(d.Faults())
			dirServes += float64(d.DirServes)
			originServes += float64(d.OriginServes)

			add("mem.tlb_hits", float64(rep.TLB.Hits))
			add("mem.tlb_flushes", float64(rep.TLB.Flushes))
			hits += float64(rep.TLB.Hits)
			misses += float64(rep.TLB.Misses)
			recycled += float64(rep.FramesRecycled)
			frames += float64(rep.FramesRecycled + rep.FrameAllocs)

			add("core.migrations", float64(rep.Migrations))
			add("core.delegations", float64(rep.Delegations))
			add("core.vma_queries", float64(rep.VMAQueries))

			if c := rep.Chaos; c != nil {
				add("chaos.dropped", float64(c.Injected.Dropped))
				add("chaos.duplicated", float64(c.Injected.Duplicated))
				add("chaos.nodes_lost", float64(c.NodesLost))
				add("chaos.threads_restarted", float64(c.ThreadsRestarted))
				add("chaos.pages_restored", float64(c.PagesRestored))
				add("chaos.lease_suspects", float64(c.LeaseSuspects))
			}
		}
		if rep := run.Serve; rep != nil {
			t := rep.Total
			add("serve.offered", float64(t.Offered))
			add("serve.served", float64(t.Served))
			add("serve.shed_429", float64(t.Shed429))
			add("serve.shed_queue", float64(t.ShedQueue))
			add("serve.republishes", float64(rep.Republishes))
			add("serve.reacks", float64(rep.Reacks))
			add("serve.restarts", float64(rep.Restarts))
			offered += float64(t.Offered)
			served += float64(t.Served)
			// The worst of the runs that share a rung or a policy: the runs
			// of serve_chaos are labelled "wi.0", "wi.1", ….
			group, _, _ := strings.Cut(run.Label, ".")
			if name := "serve.virt_p999_us_" + group; us(t.P999) > m[name] {
				m[name] = us(t.P999)
			}
			late := rep.Elapsed - run.Window
			if late > overrun {
				overrun = late
			}

			// The request-latency metrics read rung ×1.0 of a ladder and
			// the worst policy of the chaos runs.
			rung := run.Label[0] == 'r'
			if run.Label == "r100" || !rung {
				isServe = true
				if t.P50 > worstP50 {
					worstP50 = t.P50
				}
				if t.P999 > worstP999 {
					worstP999 = t.P999
				}
				if g := t.Goodput / 1e3; worstGoodput == 0 || g < worstGoodput {
					worstGoodput = g
				}
			}
			if rung && t.P999 <= ladderP999Limit && t.ShedQueue == 0 && late <= ladderOverrunLimit {
				if rate := float64(t.Offered) / run.Window.Seconds() / 1e3; rate > maxOK {
					maxOK = rate
				}
			}
		}
	}
	ratio("sim.lanes_per_window", laneDispatches, parallelWindows)
	ratio("dsm.coalesce_ratio", joins, faults+joins)
	ratio("dsm.nack_ratio", nacks, faults)
	ratio("dsm.origin_serve_share", originServes, dirServes)
	ratio("mem.tlb_hit_ratio", hits, hits+misses)
	ratio("mem.frames_recycled_ratio", recycled, frames)
	m["load.requests"] = float64(w.Requests)
	m["exper.cells"] = float64(it.Cells)

	m["virt_ms"] = float64(virt.Nanoseconds()) / 1e6
	if isServe {
		m["serve.virt_overrun_ms"] = float64(overrun.Nanoseconds()) / 1e6
		m["virt_req_p50_us"] = us(worstP50)
		m["virt_req_p999_us"] = us(worstP999)
		m["virt_goodput_krps"] = worstGoodput
		ratio("fail_share", offered-served, offered)
		if w.Name == "serve" {
			m["virt_max_ok_krps"] = maxOK
		}
	} else {
		ratio("fail_share", failedRuns, float64(len(it.Runs)))
	}
	if w.Name == "suite" {
		pct, err := workloads.PaperError(it.Tables)
		if err != nil {
			return nil, err
		}
		m["paper_err_pct"] = pct
	}
	return m, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// fingerprint hashes every simulated statistic of an iteration, and its
// runs' output digests, into one value. A change that only makes the
// simulator faster must leave it equal; so must a second run of one commit.
func fingerprint(stats map[string]float64, it workloads.Iteration) string {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%v\n", n, stats[n])
	}
	for _, run := range it.Runs {
		fmt.Fprintf(h, "%s:%s:%v\n", run.Label, run.Check, run.Elapsed)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
