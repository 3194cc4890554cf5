package validate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"

	"mcmap/internal/model"
)

// Fingerprint returns a canonical content hash of a problem spec: a
// sha256 over a canonicalized serialization in which processors are
// sorted by ID, graphs by name, tasks by ID, channels by (src, dst,
// size), allowed-type lists lexicographically and the mapping by task
// ID. Two specs that decode to the same semantic instance — regardless
// of JSON key order, array order or cosmetic formatting — therefore
// fingerprint identically, while any change to a timing parameter, the
// topology, the fabric, the hardening state or the mapping changes the
// hash.
//
// Semantic defaults are resolved before hashing: a zero deadline equals
// the period, a zero processor speed equals 1.0, and the legacy
// Fabric.Shared alias collapses into the shared-bus kind — specs that
// spell the same instance differently still collide.
//
// The mapping is part of the hash (an analysis request for the same
// applications on a different mapping is different work). Callers that
// want an identity for the PROBLEM rather than the candidate — e.g. the
// problem identity a DSE checkpoint is resumed against — should
// fingerprint a Spec with the Mapping field cleared.
//
// Fingerprint never panics, accepts arbitrarily malformed or partial
// specs (nil architecture, nil apps, nil graphs in the slice), and is a
// pure function of its input: it is safe to call concurrently and
// usable as a request-coalescing key.
func Fingerprint(s *model.Spec) string {
	h := sha256.New()
	if s == nil {
		io.WriteString(h, "nil-spec")
		return hex.EncodeToString(h.Sum(nil))
	}
	writeArch(h, s.Architecture)
	writeApps(h, s.Apps)
	writeMapping(h, s.Mapping)
	return hex.EncodeToString(h.Sum(nil))
}

// str writes a length-prefixed string, keeping the stream injective for
// values that may contain the separator characters themselves.
func str(w io.Writer, s string) {
	fmt.Fprintf(w, "%d:%s;", len(s), s)
}

func num(w io.Writer, v int64)      { fmt.Fprintf(w, "%d;", v) }
func flt(w io.Writer, v float64)    { io.WriteString(w, strconv.FormatFloat(v, 'g', -1, 64)+";") }
func boolean(w io.Writer, v bool)   { fmt.Fprintf(w, "%t;", v) }
func section(w io.Writer, s string) { io.WriteString(w, "\n#"+s+"\n") }

func writeArch(w io.Writer, a *model.Architecture) {
	section(w, "architecture")
	if a == nil {
		io.WriteString(w, "nil")
		return
	}
	str(w, a.Name)
	num(w, int64(a.Fabric.EffectiveKind()))
	flt(w, a.Fabric.Bandwidth)
	num(w, int64(a.Fabric.BaseLatency))
	num(w, int64(a.Fabric.MeshWidth))
	procs := append([]model.Processor(nil), a.Procs...)
	sort.SliceStable(procs, func(i, j int) bool { return procs[i].ID < procs[j].ID })
	for i := range procs {
		p := &procs[i]
		num(w, int64(p.ID))
		str(w, p.Name)
		str(w, p.Type)
		flt(w, p.StaticPower)
		flt(w, p.DynPower)
		flt(w, p.FaultRate)
		flt(w, p.EffectiveSpeed())
		boolean(w, p.NonPreemptive)
	}
}

func writeApps(w io.Writer, apps *model.AppSet) {
	section(w, "apps")
	if apps == nil {
		io.WriteString(w, "nil")
		return
	}
	graphs := append([]*model.TaskGraph(nil), apps.Graphs...)
	sort.SliceStable(graphs, func(i, j int) bool {
		return graphName(graphs[i]) < graphName(graphs[j])
	})
	for _, g := range graphs {
		section(w, "graph")
		if g == nil {
			io.WriteString(w, "nil")
			continue
		}
		str(w, g.Name)
		num(w, int64(g.Period))
		num(w, int64(g.EffectiveDeadline()))
		flt(w, g.ReliabilityBound)
		flt(w, g.Service)
		tasks := append([]*model.Task(nil), g.Tasks...)
		sort.SliceStable(tasks, func(i, j int) bool { return taskID(tasks[i]) < taskID(tasks[j]) })
		for _, t := range tasks {
			if t == nil {
				io.WriteString(w, "nil-task;")
				continue
			}
			str(w, string(t.ID))
			str(w, t.Name)
			num(w, int64(t.BCET))
			num(w, int64(t.WCET))
			num(w, int64(t.VoteOverhead))
			num(w, int64(t.DetectOverhead))
			num(w, int64(t.Kind))
			boolean(w, t.Passive)
			num(w, int64(t.ReExec))
			str(w, string(t.Origin))
			types := append([]string(nil), t.AllowedTypes...)
			sort.Strings(types)
			for _, ty := range types {
				str(w, ty)
			}
		}
		chans := append([]*model.Channel(nil), g.Channels...)
		sort.SliceStable(chans, func(i, j int) bool {
			a, b := chans[i], chans[j]
			if a == nil || b == nil {
				return b != nil
			}
			if a.Src != b.Src {
				return a.Src < b.Src
			}
			if a.Dst != b.Dst {
				return a.Dst < b.Dst
			}
			return a.Size < b.Size
		})
		for _, c := range chans {
			if c == nil {
				io.WriteString(w, "nil-chan;")
				continue
			}
			str(w, string(c.Src))
			str(w, string(c.Dst))
			num(w, c.Size)
		}
	}
}

func writeMapping(w io.Writer, m model.Mapping) {
	section(w, "mapping")
	if m == nil {
		io.WriteString(w, "nil")
		return
	}
	ids := make([]model.TaskID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		str(w, string(id))
		num(w, int64(m[id]))
	}
}

func graphName(g *model.TaskGraph) string {
	if g == nil {
		return ""
	}
	return g.Name
}

func taskID(t *model.Task) model.TaskID {
	if t == nil {
		return ""
	}
	return t.ID
}
