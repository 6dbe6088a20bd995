// Command fttopo inspects fat-tree topologies: structural summary,
// wiring validation (including the Ohring/Theorem-1 cross-check), path
// enumeration between two nodes, and Graphviz export. The gen
// subcommand emits multi-plane federation configs for ftserve/ftbench.
//
// Usage:
//
//	fttopo [-levels 3] [-children 4] [-parents 4] [-dot out.dot]
//	       [-path src,dst]
//	fttopo gen [-planes 2] [-levels 3] [-children 4] [-parents 4]
//	           [-scheduler spec] [-policy hash] [-out fabric.json]
//	           [-flap-threshold 3] [-flap-half-life 1s] [-probation 100ms]
//	           [-repair-budget 256] [-repair-budget-burst 1024]
//	           [-health-alpha 0.2] [-open-below 0.15] [-latency-budget 2ms]
//	           [-failover-budget 100] [-failover-budget-burst 200]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/digits"
	"repro/internal/federation"
	"repro/internal/topology"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := runGen(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "fttopo gen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	levels := flag.Int("levels", 3, "switch levels l")
	children := flag.Int("children", 4, "children per switch m")
	parents := flag.Int("parents", 4, "parents per switch w")
	dotPath := flag.String("dot", "", "write Graphviz DOT to this file")
	pathSpec := flag.String("path", "", "enumerate paths between 'src,dst'")
	flag.Parse()

	if err := run(*levels, *children, *parents, *dotPath, *pathSpec); err != nil {
		fmt.Fprintf(os.Stderr, "fttopo: %v\n", err)
		os.Exit(1)
	}
}

// runGen is the gen subcommand: emit a federation FileConfig of n
// identical planes, validated before it is written, to stdout or -out.
func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	planes := fs.Int("planes", 2, "number of planes")
	levels := fs.Int("levels", 3, "switch levels l")
	children := fs.Int("children", 4, "children per switch m")
	parents := fs.Int("parents", 4, "parents per switch w")
	scheduler := fs.String("scheduler", "", "per-plane admission engine spec (empty = fabric default)")
	policy := fs.String("policy", "", "plane selection policy (hash|round-robin|random|least-loaded; empty = hash)")
	flapThreshold := fs.Float64("flap-threshold", 0, "per-plane flap-damping quarantine threshold (0 = damping off)")
	flapHalfLife := fs.Duration("flap-half-life", 0, "per-plane flap score half-life (0 = fabric default)")
	probation := fs.Duration("probation", 0, "per-plane quarantine probation window (0 = fabric default)")
	repairBudget := fs.Float64("repair-budget", 0, "per-plane repair retry tokens/sec (0 = fabric default, negative = unlimited)")
	repairBurst := fs.Int("repair-budget-burst", 0, "per-plane repair retry burst (0 = fabric default)")
	healthAlpha := fs.Float64("health-alpha", 0, "EWMA health smoothing factor (0 = federation default)")
	openBelow := fs.Float64("open-below", 0, "health score below which the breaker opens (0 = federation default)")
	latencyBudget := fs.Duration("latency-budget", 0, "grant latency above this counts as degraded (0 = off)")
	failoverBudget := fs.Float64("failover-budget", 0, "failover tokens/sec across the federation (0 = unlimited)")
	failoverBurst := fs.Int("failover-budget-burst", 0, "failover token burst (0 = rate ceiling)")
	out := fs.String("out", "", "write the config to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *planes < 1 {
		return fmt.Errorf("need at least 1 plane, got %d", *planes)
	}
	fc := federation.Generate(*planes, *levels, *children, *parents, *scheduler, *policy)
	fc.HealthAlpha = *healthAlpha
	fc.OpenBelow = *openBelow
	if *latencyBudget > 0 {
		fc.LatencyBudget = latencyBudget.String()
	}
	fc.FailoverBudgetRate = *failoverBudget
	fc.FailoverBudgetBurst = *failoverBurst
	for i := range fc.Planes {
		fc.Planes[i].FlapThreshold = *flapThreshold
		if *flapHalfLife > 0 {
			fc.Planes[i].FlapHalfLife = flapHalfLife.String()
		}
		if *probation > 0 {
			fc.Planes[i].QuarantineProbation = probation.String()
		}
		fc.Planes[i].RepairBudgetRate = *repairBudget
		fc.Planes[i].RepairBudgetBurst = *repairBurst
	}
	if err := fc.Validate(); err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return fc.Write(w)
}

func run(levels, children, parents int, dotPath, pathSpec string) error {
	tree, err := topology.New(levels, children, parents)
	if err != nil {
		return err
	}
	fmt.Println(tree)
	for h := 0; h < tree.Levels(); h++ {
		fmt.Printf("  level %d: %d switches\n", h, tree.SwitchesAt(h))
	}
	m := tree.ComputeMetrics()
	fmt.Printf("  diameter %d hops, avg distance %.2f, path diversity %d, bisection %d links, full bandwidth: %v\n",
		m.Diameter, m.AvgDistance, m.MaxPathDiversity, m.BisectionLinks, m.FullBandwidth)
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("wiring validation FAILED: %w", err)
	}
	fmt.Println("wiring validation: ok (bidirectional adjacency consistent)")
	if tree.Spec().Symmetric() {
		if err := crossCheckOhring(tree); err != nil {
			return err
		}
		fmt.Println("Ohring construction cross-check: ok (Theorem 1 wiring matches)")
	}

	if dotPath != "" {
		f, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tree.WriteDot(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", dotPath)
	}

	if pathSpec != "" {
		var src, dst int
		if _, err := fmt.Sscanf(pathSpec, "%d,%d", &src, &dst); err != nil {
			return fmt.Errorf("bad -path %q: want 'src,dst'", pathSpec)
		}
		return enumeratePaths(tree, src, dst)
	}
	return nil
}

func crossCheckOhring(tree *topology.Tree) error {
	for h := 0; h < tree.LinkLevels(); h++ {
		for idx := 0; idx < tree.SwitchesAt(h); idx++ {
			for p := 0; p < tree.Parents(); p++ {
				if tree.UpParent(h, idx, p) != tree.OhringParent(h, idx, p) {
					return fmt.Errorf("Ohring mismatch at level %d switch %d port %d", h, idx, p)
				}
			}
		}
	}
	return nil
}

func enumeratePaths(tree *topology.Tree, src, dst int) error {
	h := tree.AncestorLevel(src, dst)
	total := digits.Pow(tree.Parents(), h)
	fmt.Printf("paths %d → %d: common ancestor at level %d, %d distinct paths\n", src, dst, h, total)
	limit := total
	if limit > 16 {
		limit = 16
	}
	for enc := 0; enc < limit; enc++ {
		ports := make([]int, h)
		e := enc
		for i := range ports {
			ports[i] = e % tree.Parents()
			e /= tree.Parents()
		}
		path, err := tree.ExpandPath(src, dst, ports)
		if err != nil {
			return err
		}
		hops := make([]string, len(path.Hops))
		for i, hp := range path.Hops {
			hops[i] = fmt.Sprintf("(%d,%d)", hp.Level, hp.Index)
		}
		fmt.Printf("  ports %v: %s\n", ports, strings.Join(hops, " → "))
	}
	if limit < total {
		fmt.Printf("  … %d more\n", total-limit)
	}
	return nil
}
