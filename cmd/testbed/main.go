// Command testbed manages a tracefile repository: a searchable catalog of
// measurement cubes with metadata and derived imbalance summaries, in the
// spirit of the Tracefile Testbed (ICPP 2002).
//
// Usage:
//
//	testbed -dir traces add -name cfd-16 -in run.lifp -system sp2 -program cfd -tags paper,mpi
//	testbed -dir traces add -name paper -paper -system sp2 -program cfd
//	testbed -dir traces list
//	testbed -dir traces query -minprocs 16 -minsid 0.01
//	testbed -dir traces show -name cfd-16
//	testbed -dir traces export -name cfd-16 -out copy.json
//	testbed -dir traces remove -name cfd-16
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"loadimb/internal/core"
	"loadimb/internal/report"
	"loadimb/internal/testbed"
	"loadimb/internal/trace"
	"loadimb/internal/tracefmt"
	"loadimb/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("testbed: ")
	dir := flag.String("dir", "traces", "repository directory")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("no command: want add, list, query, show, export or remove")
	}
	repo, err := testbed.Open(*dir)
	if err != nil {
		log.Fatal(err)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "add":
		err = cmdAdd(repo, rest)
	case "list":
		err = cmdList(repo)
	case "query":
		err = cmdQuery(repo, rest)
	case "show":
		err = cmdShow(repo, rest)
	case "export":
		err = cmdExport(repo, rest)
	case "remove":
		err = cmdRemove(repo, rest)
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func cmdAdd(repo *testbed.Repository, args []string) error {
	fs := flag.NewFlagSet("add", flag.ContinueOnError)
	name := fs.String("name", "", "entry name")
	in := fs.String("in", "", "cube file to add (.lifp, .json or .csv)")
	usePaper := fs.Bool("paper", false, "add the reconstructed paper cube")
	system := fs.String("system", "", "system the trace was collected on")
	program := fs.String("program", "", "traced program")
	desc := fs.String("desc", "", "description")
	tags := fs.String("tags", "", "comma-separated tags")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("add: -name is required")
	}
	cube, err := loadAddCube(*in, *usePaper)
	if err != nil {
		return err
	}
	meta := testbed.Meta{System: *system, Program: *program, Description: *desc}
	if *tags != "" {
		meta.Tags = strings.Split(*tags, ",")
	}
	entry, err := repo.Add(*name, meta, cube)
	if err != nil {
		return err
	}
	fmt.Printf("added %s: P=%d, N=%d, K=%d, T=%.3f s, max SID_C=%.5f\n",
		entry.Name, entry.Procs, entry.Regions, entry.Activities, entry.ProgramTime, entry.MaxSID)
	return nil
}

func loadAddCube(in string, usePaper bool) (*trace.Cube, error) {
	switch {
	case usePaper && in != "":
		return nil, fmt.Errorf("add: use either -in or -paper, not both")
	case usePaper:
		return workload.ReconstructCube()
	case in == "":
		return nil, fmt.Errorf("add: pass -in <cube> or -paper")
	}
	return tracefmt.OpenCube(in)
}

func cmdList(repo *testbed.Repository) error {
	entries := repo.List()
	if len(entries) == 0 {
		fmt.Println("repository is empty")
		return nil
	}
	printEntries(entries)
	return nil
}

func cmdQuery(repo *testbed.Repository, args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	system := fs.String("system", "", "match system")
	program := fs.String("program", "", "match program")
	tag := fs.String("tag", "", "match tag")
	minProcs := fs.Int("minprocs", 0, "minimum processor count")
	maxProcs := fs.Int("maxprocs", 0, "maximum processor count (0 = unbounded)")
	minSID := fs.Float64("minsid", 0, "minimum headline imbalance (max SID_C)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	entries := repo.Query(testbed.Filter{
		System: *system, Program: *program, Tag: *tag,
		MinProcs: *minProcs, MaxProcs: *maxProcs, MinSID: *minSID,
	})
	if len(entries) == 0 {
		fmt.Println("no matching traces")
		return nil
	}
	printEntries(entries)
	return nil
}

func printEntries(entries []testbed.Entry) {
	fmt.Printf("%-16s %5s %4s %4s %10s %9s  %-12s %-12s %s\n",
		"name", "procs", "N", "K", "T (s)", "max SID", "system", "program", "tags")
	for _, e := range entries {
		fmt.Printf("%-16s %5d %4d %4d %10.3f %9.5f  %-12s %-12s %s\n",
			e.Name, e.Procs, e.Regions, e.Activities, e.ProgramTime, e.MaxSID,
			e.Meta.System, e.Meta.Program, strings.Join(e.Meta.Tags, ","))
	}
}

func cmdShow(repo *testbed.Repository, args []string) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	name := fs.String("name", "", "entry name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("show: -name is required")
	}
	entry, cube, err := repo.Get(*name)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%s on %s)\n", entry.Name, entry.Meta.Program, entry.Meta.System)
	if entry.Meta.Description != "" {
		fmt.Println(entry.Meta.Description)
	}
	analysis, err := core.Analyze(cube, core.AnalyzeOptions{})
	if err != nil {
		return err
	}
	fmt.Print(report.Summary(analysis))
	return nil
}

func cmdExport(repo *testbed.Repository, args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	name := fs.String("name", "", "entry name")
	out := fs.String("out", "", "destination file (.lifp, .json or .csv)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *out == "" {
		return fmt.Errorf("export: -name and -out are required")
	}
	_, cube, err := repo.Get(*name)
	if err != nil {
		return err
	}
	if err := tracefmt.SaveCube(*out, cube); err != nil {
		return err
	}
	fmt.Printf("exported %s to %s\n", *name, *out)
	return nil
}

func cmdRemove(repo *testbed.Repository, args []string) error {
	fs := flag.NewFlagSet("remove", flag.ContinueOnError)
	name := fs.String("name", "", "entry name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("remove: -name is required")
	}
	if err := repo.Remove(*name); err != nil {
		return err
	}
	fmt.Printf("removed %s\n", *name)
	return nil
}
