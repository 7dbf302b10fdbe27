package workload

import (
	"flag"
	"strconv"
	"strings"
)

// Flag binding for the registry: one typed flag per declared option, shared
// between every consumer that exposes workloads on a command line. This used
// to live in cmd/dprof; it moved here so the CLI and the HTTP service parse
// and canonicalize option values through exactly one code path
// (Option.Canonicalize) instead of drifting apart.

// FlagValues reads explicitly-set workload option flags back out of a
// FlagSet in the registry's canonical string form.
type FlagValues struct {
	getters map[string]func() string
}

// RegisterFlags declares one typed flag per option declared by any
// registered workload. Workloads that declare the same option share one
// flag; only explicitly-set flags are ever passed on, so a flag's own
// default never reaches a workload. Call it after all workloads have
// registered and before fs.Parse.
func RegisterFlags(fs *flag.FlagSet) *FlagValues {
	fv := &FlagValues{getters: make(map[string]func() string)}
	var order []string
	decls := make(map[string][]declaration)
	for _, name := range Names() {
		w, _ := Get(name)
		for _, o := range w.Options() {
			if decls[o.Name] == nil {
				order = append(order, o.Name)
			}
			decls[o.Name] = append(decls[o.Name], declaration{name, o})
		}
	}
	for _, name := range order {
		o, usage := flagUsage(decls[name])
		switch o.Kind {
		case Bool:
			def, _ := strconv.ParseBool(orKindZero(Bool, o.Default))
			p := fs.Bool(o.Name, def, usage)
			fv.getters[o.Name] = func() string { return strconv.FormatBool(*p) }
		case Int:
			def, _ := strconv.ParseInt(orKindZero(Int, o.Default), 0, 64)
			p := fs.Int64(o.Name, def, usage)
			fv.getters[o.Name] = func() string { return strconv.FormatInt(*p, 10) }
		case Float:
			def, _ := strconv.ParseFloat(orKindZero(Float, o.Default), 64)
			p := fs.Float64(o.Name, def, usage)
			fv.getters[o.Name] = func() string { return strconv.FormatFloat(*p, 'g', -1, 64) }
		case Str:
			p := fs.String(o.Name, o.Default, usage)
			fv.getters[o.Name] = func() string { return *p }
		}
	}
	return fv
}

// declaration is one workload's declaration of an option.
type declaration struct {
	workload string
	opt      Option
}

// flagUsage merges every declaration of one option into the flag's option
// and usage text. An option one workload declares is labelled with that
// workload's name. A shared option is not: its usage is the common text (or
// each workload's, labelled, where they differ), and where the defaults
// differ the flag shows none and points at -list-workloads instead.
func flagUsage(ds []declaration) (Option, string) {
	o := ds[0].opt
	if len(ds) == 1 {
		return o, ds[0].workload + ": " + o.Usage
	}
	sameUsage, sameDefault := true, true
	for _, d := range ds[1:] {
		sameUsage = sameUsage && d.opt.Usage == o.Usage
		sameDefault = sameDefault && d.opt.Default == o.Default
	}
	usage := o.Usage
	if !sameUsage {
		parts := make([]string, len(ds))
		for i, d := range ds {
			parts[i] = d.workload + ": " + d.opt.Usage
		}
		usage = strings.Join(parts, "; ")
	}
	if !sameDefault {
		o.Default = "" // the kind's zero value, which the flag package does not print
		usage += " (default varies by workload; see -list-workloads)"
	}
	return o, usage
}

// Explicit returns the canonical values of the workload option flags the
// user actually set on the command line. Passing only explicit values on
// means every workload sees its own declared defaults for the rest — and
// options the selected workload does not declare are rejected by NewConfig
// instead of silently ignored.
func (fv *FlagValues) Explicit(fs *flag.FlagSet) map[string]string {
	out := make(map[string]string)
	fs.Visit(func(f *flag.Flag) {
		if get, ok := fv.getters[f.Name]; ok {
			out[f.Name] = get()
		}
	})
	return out
}
