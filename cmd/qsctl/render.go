package main

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"strings"
)

// render writes a stats document (wire.DaemonStats) as text, one line per
// struct, and returns how many lines it wrote. A line is named by its field
// path (the root by its type) and lists the struct's scalar fields as
// Field=value in declaration order, printed with %v, so a Stringer such as
// time.Duration prints through String and an array or a slice of scalars as
// [a b …]. An embedded struct's fields join its embedder's line. A nested
// struct, a non-nil pointer to one, a map (entries sorted by key) and each
// element of a slice of structs get lines of their own. With sections named,
// only the top-level fields of those names print.
//
// Nothing here knows a counter: a field added to any of these structs prints
// as it is declared.
func render(w io.Writer, doc any, sections ...string) int {
	r := renderer{w: w, sections: sections}
	r.walk("", reflect.ValueOf(doc))
	return r.lines
}

type renderer struct {
	w        io.Writer
	sections []string
	lines    int
}

// walk prints the struct or map v at path, then the sections below it.
func (r *renderer) walk(path string, v reflect.Value) {
	if v.Kind() == reflect.Map {
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		var pairs []string
		for _, k := range keys {
			pairs = append(pairs, fmt.Sprintf("%v=%v", k, v.MapIndex(k)))
		}
		r.line(path, pairs)
		return
	}
	var pairs []string
	var subs []section
	collect(path, v, &pairs, &subs)
	if path == "" {
		path = v.Type().Name()
	}
	r.line(path, pairs)
	for _, s := range subs {
		r.walk(s.path, s.v)
	}
}

// section is a struct or map that prints on a line of its own.
type section struct {
	path string
	v    reflect.Value
}

// collect appends the struct v's scalar fields to pairs and its nested
// sections to subs; an embedded struct's fields are v's own.
func collect(path string, v reflect.Value, pairs *[]string, subs *[]section) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		if !f.IsExported() {
			continue
		}
		sub := f.Name
		if path != "" {
			sub = path + "." + f.Name
		}
		switch {
		case f.Anonymous && fv.Kind() == reflect.Struct:
			collect(path, fv, pairs, subs)
		case fv.Kind() == reflect.Struct, fv.Kind() == reflect.Map:
			*subs = append(*subs, section{sub, fv})
		case fv.Kind() == reflect.Pointer && fv.Type().Elem().Kind() == reflect.Struct:
			if !fv.IsNil() {
				*subs = append(*subs, section{sub, fv.Elem()})
			}
		case fv.Kind() == reflect.Slice && fv.Type().Elem().Kind() == reflect.Struct:
			for j := 0; j < fv.Len(); j++ {
				*subs = append(*subs, section{fmt.Sprintf("%s[%d]", sub, j), fv.Index(j)})
			}
		default:
			*pairs = append(*pairs, fmt.Sprintf("%s=%v", f.Name, fv))
		}
	}
}

// line prints one named line, unless it is empty or outside the sections.
func (r *renderer) line(path string, pairs []string) {
	if len(pairs) == 0 {
		return
	}
	top := path
	if i := strings.IndexAny(path, ".["); i >= 0 {
		top = path[:i]
	}
	if len(r.sections) > 0 && !slices.Contains(r.sections, top) {
		return
	}
	fmt.Fprintf(r.w, "%-16s %s\n", path, strings.Join(pairs, " "))
	r.lines++
}
