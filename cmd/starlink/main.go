// Command starlink runs an application-middleware mediator from model
// files, and copies out the case-study models it is built with.
//
// Usage:
//
//	starlink run -models <dir> -mediator <name> [-listen addr] [-admin addr]
//	starlink gateway -models <dir> -gateway <name> [-listen addr] [-admin addr]
//	starlink export-models <dir>
//	starlink list -models <dir>
//
// The gateway subcommand hosts every route's mediator behind one
// sniffing front door; SIGHUP hot-reloads all of them from the models
// directory with zero downtime.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

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
		return fmt.Errorf("usage: starlink run|gateway|export-models|list ...")
	}
	switch args[0] {
	case "run":
		return runMediator(args[1:])
	case "gateway":
		return runGateway(args[1:])
	case "export-models":
		if len(args) != 2 {
			return fmt.Errorf("usage: starlink export-models <dir>")
		}
		return ExportCaseStudyModels(args[1])
	case "list":
		return listModels(args[1:])
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

func listModels(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
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
	return nil
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
