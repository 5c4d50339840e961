package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"fsmonitor/internal/events"
	"fsmonitor/internal/lustre"
	"fsmonitor/internal/vfs"
)

// opKind is one generated file-system operation.
type opKind uint8

const (
	opMkdir   opKind = iota // make a directory (Lustre backlog only)
	opCreate                // create + write + close
	opRewrite               // open + write + close of a live file
	opRename                // rename a live file within its directory
	opRemove                // unlink a live file
)

var opKindNames = [...]string{"mkdir", "create", "rewrite", "rename", "remove"}

// op is one entry of the generator's op log. Every name the generator
// hands out is unique ("d<ent>" for directories, "f<ent>" then
// "f<ent>.<ver>" after each rename), so a delivered event's base name alone
// identifies the entity it belongs to, even when Algorithm 1 falls back to
// "/ParentDirectoryRemoved/<name>".
type op struct {
	kind opKind
	ent  int32 // entity the op acts on
	ver  int32 // the entity's name version before the op
}

// entity is a directory or file of the generated namespace.
type entity struct {
	parent int32 // parent directory entity (-1 for top-level directories)
	ver    int32 // current name version
	live   int32 // index in gen.live (-1 when not a live file)
	dir    bool
}

// gen produces a deterministic op log from a seed over a two-level tree
// of top×sub directories; files live in the leaf directories.
type gen struct {
	rng    *rand.Rand
	ents   []entity
	leaves []int32
	live   []int32  // live file entities, for uniform picks
	dpath  []string // directory paths, by entity
	ops    []op
	lustre bool // rewrites journal no OPEN on Lustre
}

func newGen(seed int64, top, sub int, lustre bool) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed)), lustre: lustre}
	for i := 0; i < top; i++ {
		g.ents = append(g.ents, entity{parent: -1, live: -1, dir: true})
	}
	for i := 0; i < top; i++ {
		for j := 0; j < sub; j++ {
			g.leaves = append(g.leaves, int32(len(g.ents)))
			g.ents = append(g.ents, entity{parent: int32(i), live: -1, dir: true})
		}
	}
	for i := range g.ents {
		p := ""
		if par := g.ents[i].parent; par >= 0 {
			p = g.dpath[par]
		}
		g.dpath = append(g.dpath, p+"/"+g.name(int32(i), 0))
	}
	return g
}

// mkdirOps appends an op per directory, parents first.
func (g *gen) mkdirOps() {
	for i := range g.ents {
		if g.ents[i].dir {
			g.ops = append(g.ops, op{kind: opMkdir, ent: int32(i)})
		}
	}
}

// next appends one churn op. The mix keeps creates ahead of removes, so
// the live set (the resolver's working set) grows through the run.
func (g *gen) next() op {
	var k opKind
	if len(g.live) < 64 {
		k = opCreate
	} else {
		switch r := g.rng.Intn(100); {
		case r < 34:
			k = opCreate
		case r < 64:
			k = opRewrite
		case r < 78:
			k = opRename
		default:
			k = opRemove
		}
	}
	var o op
	switch k {
	case opCreate:
		e := int32(len(g.ents))
		g.ents = append(g.ents, entity{parent: g.leaves[g.rng.Intn(len(g.leaves))], live: int32(len(g.live))})
		g.live = append(g.live, e)
		o = op{kind: k, ent: e}
	default:
		e := g.live[g.rng.Intn(len(g.live))]
		o = op{kind: k, ent: e, ver: g.ents[e].ver}
		switch k {
		case opRename:
			g.ents[e].ver++
		case opRemove:
			i := g.ents[e].live
			last := g.live[len(g.live)-1]
			g.live[i] = last
			g.ents[last].live = i
			g.live = g.live[:len(g.live)-1]
			g.ents[e].live = -1
		}
	}
	g.ops = append(g.ops, o)
	return o
}

// churn appends n churn ops.
func (g *gen) churn(n int) {
	for i := 0; i < n; i++ {
		g.next()
	}
}

// name is an entity's name at version ver.
func (g *gen) name(ent, ver int32) string {
	if g.ents[ent].dir {
		return "d" + strconv.Itoa(int(ent))
	}
	if ver == 0 {
		return "f" + strconv.Itoa(int(ent))
	}
	return "f" + strconv.Itoa(int(ent)) + "." + strconv.Itoa(int(ver))
}

// path is an entity's path (relative to the watch root) at version ver.
func (g *gen) path(ent, ver int32) string {
	if g.ents[ent].dir {
		return g.dpath[ent]
	}
	return g.dpath[g.ents[ent].parent] + "/" + g.name(ent, ver)
}

// parentPath is the directory an entity's events are reported under.
func (g *gen) parentPath(ent int32) string {
	if p := g.ents[ent].parent; p >= 0 {
		return g.dpath[p]
	}
	return "/"
}

// parseName maps a base name back to its entity, reporting the version.
func parseName(base string) (ent, ver int32, ok bool) {
	if len(base) < 2 || (base[0] != 'f' && base[0] != 'd') {
		return 0, 0, false
	}
	num, vs, hasVer := strings.Cut(base[1:], ".")
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, 0, false
	}
	if hasVer {
		v, err := strconv.Atoi(vs)
		if err != nil || v <= 0 {
			return 0, 0, false
		}
		return int32(n), int32(v), true
	}
	return int32(n), 0, true
}

// expected lists the events an op must produce, in order, as
// (op mask, name version of the subject).
func (g *gen) expected(o op, dst []expEv) []expEv {
	switch o.kind {
	case opMkdir:
		return append(dst, expEv{op: events.OpCreate | events.OpIsDir, ent: o.ent})
	case opCreate:
		return append(dst,
			expEv{op: events.OpCreate, ent: o.ent},
			expEv{op: events.OpModify, ent: o.ent},
			expEv{op: events.OpCloseWrite, ent: o.ent})
	case opRewrite:
		if !g.lustre {
			dst = append(dst, expEv{op: events.OpOpen, ent: o.ent, ver: o.ver})
		}
		return append(dst,
			expEv{op: events.OpModify, ent: o.ent, ver: o.ver},
			expEv{op: events.OpCloseWrite, ent: o.ent, ver: o.ver})
	case opRename:
		return append(dst,
			expEv{op: events.OpMovedFrom, ent: o.ent, ver: o.ver},
			expEv{op: events.OpMovedTo, ent: o.ent, ver: o.ver + 1})
	case opRemove:
		return append(dst, expEv{op: events.OpDelete, ent: o.ent, ver: o.ver})
	}
	return dst
}

// eventsPerOp is the number of events op o produces.
func (g *gen) eventsPerOp(o op) int {
	var buf [3]expEv
	return len(g.expected(o, buf[:0]))
}

const writeSize = 4096

// applyVFS performs o on the simulated local file system under root.
func (g *gen) applyVFS(fs *vfs.FS, root string, o op) error {
	p := root + g.path(o.ent, o.ver)
	switch o.kind {
	case opMkdir:
		return fs.Mkdir(p)
	case opCreate, opRewrite:
		var h *vfs.Handle
		var err error
		if o.kind == opCreate {
			h, err = fs.Create(p)
		} else {
			h, err = fs.Open(p, true)
		}
		if err != nil {
			return err
		}
		if err := h.Write(writeSize); err != nil {
			return err
		}
		return h.Close()
	case opRename:
		return fs.Rename(p, root+g.path(o.ent, o.ver+1))
	case opRemove:
		return fs.Remove(p)
	}
	return fmt.Errorf("unknown op %d", o.kind)
}

// applyLustre performs o through a Lustre client; every metadata change
// lands in the owning MDT's Changelog.
func (g *gen) applyLustre(cl *lustre.Client, o op) error {
	p := g.path(o.ent, o.ver)
	switch o.kind {
	case opMkdir:
		return cl.Mkdir(p)
	case opCreate:
		if err := cl.Create(p); err != nil {
			return err
		}
		fallthrough
	case opRewrite:
		if err := cl.Write(p, writeSize); err != nil {
			return err
		}
		return cl.CloseFile(p)
	case opRename:
		return cl.Rename(p, g.path(o.ent, o.ver+1))
	case opRemove:
		return cl.Unlink(p)
	}
	return fmt.Errorf("unknown op %d", o.kind)
}
