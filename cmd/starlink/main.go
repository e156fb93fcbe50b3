// Command starlink runs an application-middleware mediator from model
// files, checks, merges and draws the models, and copies out the
// case-study models it is built with.
//
// Usage:
//
//	starlink run -models <dir> -mediator <name> [-listen addr] [-admin addr]
//	starlink gateway -models <dir> -gateway <name> [-listen addr] [-admin addr]
//	starlink check -models <dir>
//	starlink merge [-equiv <file.equiv>] [-name <name>] [-o <out.xml>] <a1.xml> <a2.xml>
//	starlink dot <file.automaton.xml|file.merged.xml>
//	starlink parse <file.mdl> <packet|->
//	starlink export-models <dir>
//
// The gateway subcommand hosts every route's mediator behind one
// sniffing front door; SIGHUP hot-reloads all of them from the models
// directory with zero downtime. check lists the directory and builds every
// spec in it as run and gateway would, short of listening, and exits
// non-zero on any finding. merge prints the Definition 7 verdict and the
// pairings to stderr and the XML to stdout or -o.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"starlink/internal/automata"
	"starlink/internal/core"
	"starlink/internal/mdl"
	modelfiles "starlink/models"
	"starlink/starlink"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "starlink:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: starlink run|gateway|check|merge|dot|parse|export-models ...")
	}
	switch args[0] {
	case "run":
		return runMediator(args[1:])
	case "gateway":
		return runGateway(args[1:])
	case "check":
		return checkModels(args[1:])
	case "merge":
		return merge(args[1:])
	case "dot":
		if len(args) != 2 {
			return fmt.Errorf("usage: starlink dot <file.automaton.xml|file.merged.xml>")
		}
		return dot(args[1])
	case "parse":
		if len(args) != 3 {
			return fmt.Errorf("usage: starlink parse <file.mdl> <packet|->")
		}
		return parse(args[1], args[2])
	case "export-models":
		if len(args) != 2 {
			return fmt.Errorf("usage: starlink export-models <dir>")
		}
		return ExportCaseStudyModels(args[1])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func runMediator(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	modelsDir := fs.String("models", "models", "models directory")
	name := fs.String("mediator", "", "mediator spec name")
	listen := fs.String("listen", "", "listen address override")
	admin := fs.String("admin", "", "admin endpoint address (overrides the spec's admin directive)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("-mediator is required")
	}
	models, err := starlink.LoadModels(*modelsDir)
	if err != nil {
		return err
	}
	dep, err := starlink.Deploy(*name, models, starlink.DeployOptions{Listen: *listen, Admin: *admin})
	if err != nil {
		return err
	}
	defer dep.Close()
	med, ok := dep.(*starlink.MediatorDeployment)
	if !ok {
		return fmt.Errorf("%q is not a mediator spec (use the gateway subcommand)", *name)
	}
	fmt.Printf("mediator %s listening on %s\n", *name, dep.Addr())
	if med.Admin != nil {
		fmt.Printf("admin endpoint on http://%s (/metrics /healthz /flows /automaton.dot /backends /discovery /debug/profile /debug/heap /debug/goroutines)\n", med.Admin.Addr())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}

func runGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ContinueOnError)
	modelsDir := fs.String("models", "models", "models directory")
	name := fs.String("gateway", "", "gateway spec name")
	listen := fs.String("listen", "", "front-door address override")
	admin := fs.String("admin", "", "metrics endpoint address (overrides the spec's admin directive)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("-gateway is required")
	}
	models, err := starlink.LoadModels(*modelsDir)
	if err != nil {
		return err
	}
	dep, err := starlink.Deploy(*name, models, starlink.DeployOptions{Listen: *listen, Admin: *admin})
	if err != nil {
		return err
	}
	defer dep.Close()
	gw, ok := dep.(*starlink.GatewayDeployment)
	if !ok {
		return fmt.Errorf("%q is not a gateway spec (use the run subcommand)", *name)
	}
	fmt.Printf("gateway %s listening on %s (routes: %s)\n",
		*name, dep.Addr(), strings.Join(gw.Gateway.Routes(), ", "))
	if gw.Admin != nil {
		fmt.Printf("metrics endpoint on http://%s/metrics\n", gw.Admin.Addr())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s != syscall.SIGHUP {
			break
		}
		fresh, err := starlink.LoadModels(*modelsDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "starlink: reload aborted:", err)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = gw.Reload(ctx, fresh)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "starlink: reload:", err)
			continue
		}
		fmt.Println("gateway reloaded")
	}
	fmt.Println("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return dep.Shutdown(ctx)
}

// checkModels loads a models directory, lists what it holds and builds
// every deployment spec in it (Models.Check).
func checkModels(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	modelsDir := fs.String("models", "models", "models directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	models, err := starlink.LoadModels(*modelsDir)
	if err != nil {
		return err
	}
	printSorted := func(kind string, names []string) {
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-12s %s\n", kind, n)
		}
	}
	printSorted("automaton", keys(models.Automata))
	printSorted("merged", keys(models.Merged))
	printSorted("mdl", keys(models.MDL))
	printSorted("routes", keys(models.Routes))
	printSorted("equiv", keys(models.Equivalences))
	printSorted("mediator", keys(models.Mediators))
	printSorted("gateway", keys(models.Gateways))
	return models.Check()
}

// merge derives the merged automaton of two usage automata (Definition 8).
func merge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	equivFile := fs.String("equiv", "", "equivalence table file")
	name := fs.String("name", "", "merged automaton name")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: starlink merge [-equiv f] [-name n] [-o out] <a1.xml> <a2.xml>")
	}
	a1, err := load(fs.Arg(0), automata.ParseAutomaton)
	if err != nil {
		return err
	}
	a2, err := load(fs.Arg(1), automata.ParseAutomaton)
	if err != nil {
		return err
	}
	var eq *automata.Equivalence
	if *equivFile != "" {
		if eq, err = load(*equivFile, core.ParseEquivalence); err != nil {
			return err
		}
	}
	merged, err := automata.Merge(a1, a2, automata.MergeOptions{Name: *name, Equiv: eq})
	if err != nil {
		return fmt.Errorf("%s and %s are not mergeable: %w", a1.Name, a2.Name, err)
	}
	fmt.Fprintf(os.Stderr, "%s and %s are mergeable (%s)\n", a1.Name, a2.Name, merged.Strength)
	for _, p := range merged.Pairings {
		var targets []string
		for _, op := range p.A2Ops {
			targets = append(targets, op.Request)
		}
		fmt.Fprintf(os.Stderr, "  %-40s %-14s %s\n", p.A1Request, p.Kind, cmp.Or(strings.Join(targets, " + "), "-"))
	}
	data, err := merged.EncodeXML()
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// dot prints a usage or merged automaton as a Graphviz digraph.
func dot(path string) error {
	var g interface{ DOT() string }
	var err error
	if strings.HasSuffix(path, ".merged.xml") {
		g, err = load(path, func(doc string) (*automata.Merged, error) {
			return automata.UnmarshalMerged([]byte(doc))
		})
	} else {
		g, err = load(path, automata.ParseAutomaton)
	}
	if err != nil {
		return err
	}
	fmt.Print(g.DOT())
	return nil
}

// parse prints the abstract message an MDL document reads from a packet.
func parse(mdlFile, packetFile string) error {
	spec, err := load(mdlFile, mdl.ParseString)
	if err != nil {
		return err
	}
	codec, err := core.NewCodec(spec)
	if err != nil {
		return err
	}
	var packet []byte
	if packetFile == "-" {
		packet, err = io.ReadAll(os.Stdin)
	} else {
		packet, err = os.ReadFile(packetFile)
	}
	if err != nil {
		return err
	}
	msg, err := codec.Parse(packet)
	if err != nil {
		return err
	}
	fmt.Println(msg.String())
	return nil
}

// load reads a model file and parses it.
func load[T any](path string, parse func(doc string) (T, error)) (T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		var zero T
		return zero, err
	}
	return parse(string(data))
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// ExportCaseStudyModels copies the model files compiled into the binary
// (the files of models/) to dir, for a deployment to edit.
func ExportCaseStudyModels(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := modelfiles.FS.ReadDir(".")
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := modelfiles.FS.ReadFile(e.Name())
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("exported %d model files to %s\n", len(entries), dir)
	return nil
}
