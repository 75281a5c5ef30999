package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Prometheus text exposition, format 0.0.4: the one family-grouping
// writer every plane's WriteProm renders through.

// promSample is one exposition line before grouping.
type promSample struct {
	name   string // sanitized metric name (may carry _sum/_count suffix)
	labels string // rendered {k="v",...} or ""
	value  string
}

// family is one metric family: its TYPE and its samples.
type family struct {
	kind    string
	samples []promSample
}

// Exposition groups exposition samples by family name.
type Exposition map[string]*family

// Add appends one sample (name, rendered labels, value) to the family
// famName of type kind; the family's first sample fixes its kind.
func (e Exposition) Add(famName, kind, name, labels, value string) {
	f, ok := e[famName]
	if !ok {
		f = &family{kind: kind}
		e[famName] = f
	}
	f.samples = append(f.samples, promSample{name, labels, value})
}

// Gauge adds a family of one unlabeled gauge sample.
func (e Exposition) Gauge(name, value string) { e.Add(name, "gauge", name, "", value) }

// Write renders the families named in first, in that order, then every
// other family in name order: each family's TYPE line, then its
// samples sorted by name and labels. Output is deterministic.
func (e Exposition) Write(w io.Writer, first ...string) error {
	named := make(map[string]bool, len(first))
	for _, n := range first {
		named[n] = true
	}
	var rest []string
	for n := range e {
		if !named[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	for _, n := range append(append([]string(nil), first...), rest...) {
		f, ok := e[n]
		if !ok {
			continue
		}
		sort.Slice(f.samples, func(i, j int) bool {
			a, b := f.samples[i], f.samples[j]
			if a.name != b.name {
				return a.name < b.name
			}
			return a.labels < b.labels
		})
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, f.kind); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, s.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// PromKey separates a runtime metric key into a sanitized Prometheus
// family name and a rendered label set:
//
//	schooner.client.call{proc=add,host=cray} ->
//	  schooner_client_call, {proc="add",host="cray"}
func PromKey(key string) (name, labels string) {
	base := key
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		base = key[:i]
		inner := key[i+1 : len(key)-1]
		var parts []string
		for _, kv := range strings.Split(inner, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				k, v = kv, ""
			}
			parts = append(parts, sanitizeName(k)+`="`+PromEscape(v)+`"`)
		}
		labels = "{" + strings.Join(parts, ",") + "}"
	}
	return sanitizeName(base), labels
}

// PromLabel inserts an extra rendered label into a label set.
func PromLabel(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// sanitizeName maps an arbitrary key to the Prometheus metric-name
// alphabet [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if ok {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PromEscape escapes a label value per the exposition format.
func PromEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// PromSeconds renders a duration as seconds, the Prometheus base unit.
func PromSeconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}
