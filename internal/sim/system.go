package sim

import (
	"math"
	"slices"
	"sync"

	"teem/internal/power"
	"teem/internal/soc"
	"teem/internal/thermal"
)

// system is everything an engine derives from its platform and thermal
// network alone, built once per distinct pair and shared read-only by
// every engine over it: the validated private copies of the pair, the
// node map, the cluster roles and name tables, the thermal System (its
// conductances, steady-state elimination and tick propagator) and the
// power model. plat and net are deep copies no caller holds, and
// everything else is derived from them, so a caller that mutates its own
// platform or network after New changes no engine. Beside them it keeps
// the one mutable thing engines share: the free list of engines retired
// on it.
type system struct {
	// key is the content key of plat and net (see appendKey), hash its
	// hash.
	key  []uint64
	hash uint64
	plat *soc.Platform
	net  *thermal.Network

	therm *thermal.System
	pow   *power.Model

	nodeOf                 []int // thermal node per cluster
	pkgNode                int
	bigIdx, litIdx, gpuIdx int
	// sensors maps a node name to its index, clusterIdx a cluster name.
	sensors, clusterIdx map[string]int
	// nodeNames and clusterNames label a trace's series.
	nodeNames, clusterNames []string

	// idle holds the engines retired on the system (see Engine.retire)
	// for New to rebuild. An engine enters it only when retired, and New
	// builds a new one only when it is empty, so it never holds more
	// engines than have run on the system at once.
	mu   sync.Mutex
	idle []*Engine //teem:guards mu
}

// recycle is on outside the tests that compare recycled engines with
// engines built from nothing (export_test.go).
var recycle = true

// engine returns a retired engine of s for New to rebuild, or a zero
// one.
func (s *system) engine() *Engine {
	if !recycle {
		return new(Engine)
	}
	s.mu.Lock()
	var e *Engine
	if n := len(s.idle); n > 0 {
		e = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	}
	s.mu.Unlock()
	if e == nil {
		e = new(Engine)
	}
	return e
}

// keep adds a retired engine to s's free list.
func (s *system) keep(e *Engine) {
	if !recycle {
		return
	}
	s.mu.Lock()
	s.idle = append(s.idle, e)
	s.mu.Unlock()
}

// systemCacheLimit bounds the systems the cache admits: a sweep over
// thousands of distinct candidate platforms or networks compiles each
// for its own engines instead of growing the cache without bound (paper
// passes and scenario grids reuse a handful of systems, which is what
// the cache is for).
const systemCacheLimit = 64

// systemCache is the process-wide cache of compiled systems. It is keyed
// by content, not identity: callers build fresh but equal values for
// every run (a paper pass decodes its platform anew) and some mutate a
// platform in place between runs. An entry is found by the hash of the
// pair's content key and confirmed by comparing the whole key with the
// one taken from the entry's private copies.
type systemCache struct {
	mu     sync.Mutex
	byHash map[uint64][]*system //teem:guards mu
	count  int                  //teem:guards mu
}

var systems = new(systemCache)

// keyWords is room for the content key of every catalog platform (at most
// 202 words), so a lookup builds its key on the stack.
const keyWords = 256

// systemFor returns the compiled system of the pair: the cached one, or a
// newly compiled one, which the cache admits while it has room.
func systemFor(p *soc.Platform, n *thermal.Network) (*system, error) {
	var buf [keyWords]uint64
	key := appendKey(buf[:0], p, n)
	h := hashKey(key)
	if s := systems.lookup(h, key); s != nil {
		return s, nil
	}
	s, err := compileSystem(p, n)
	if err != nil {
		return nil, err
	}
	return systems.admit(s), nil
}

// lookup returns the cached system whose key, of hash h, is key, or nil.
func (c *systemCache) lookup(h uint64, key []uint64) *system {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.findLocked(h, key)
}

func (c *systemCache) findLocked(h uint64, key []uint64) *system {
	for _, s := range c.byHash[h] {
		if slices.Equal(s.key, key) {
			return s
		}
	}
	return nil
}

// admit stores s while the cache has room and returns the system engines
// should use: an equal one a concurrent New admitted first, or s.
func (c *systemCache) admit(s *system) *system {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.findLocked(s.hash, s.key); t != nil {
		return t
	}
	if c.count < systemCacheLimit {
		// Before any engine sees it: the propagator it will keep shares
		// modal forms only if the system lives as long as the process.
		s.therm.Share()
		if c.byHash == nil {
			c.byHash = make(map[uint64][]*system)
		}
		c.byHash[s.hash] = append(c.byHash[s.hash], s)
		c.count++
	}
	return s
}

// compileSystem validates the pair and derives its system from private
// copies of it.
func compileSystem(p *soc.Platform, n *thermal.Network) (*system, error) {
	plat, net := p.Clone(), n.Clone()
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	nodeOf, pkg, err := ResolveNodes(plat, net)
	if err != nil {
		return nil, err
	}
	therm, err := thermal.Compile(net)
	if err != nil {
		return nil, err
	}
	pow, err := power.NewModel(plat)
	if err != nil {
		return nil, err
	}
	key := appendKey(nil, plat, net)
	s := &system{
		key: key, hash: hashKey(key),
		plat: plat, net: net, therm: therm, pow: pow, nodeOf: nodeOf, pkgNode: pkg,
		sensors:      make(map[string]int, len(net.Nodes)),
		clusterIdx:   make(map[string]int, len(plat.Clusters)),
		nodeNames:    make([]string, len(net.Nodes)),
		clusterNames: make([]string, len(plat.Clusters)),
	}
	for i := range plat.Clusters {
		s.clusterIdx[plat.Clusters[i].Name] = i
		s.clusterNames[i] = plat.Clusters[i].Name
		switch plat.Clusters[i].Kind {
		case soc.BigCPU:
			s.bigIdx = i
		case soc.LittleCPU:
			s.litIdx = i
		case soc.GPU:
			s.gpuIdx = i
		}
	}
	for i := range net.Nodes {
		s.sensors[net.Nodes[i].Name] = i
		s.nodeNames[i] = net.Nodes[i].Name
	}
	return s, nil
}

// appendKey appends the content key of the pair to k: every field as a
// 64-bit word (a string byte by byte, floats by representation, so 0 and
// −0 differ), each string and slice after its length. Two pairs have
// equal keys exactly when every field agrees.
func appendKey(k []uint64, p *soc.Platform, n *thermal.Network) []uint64 {
	f := math.Float64bits
	k = appendString(k, p.Name)
	k = append(k, f(p.BoardBaselineW), f(p.DRAMPowerPerGBs), f(p.AmbientC), f(p.TripC), f(p.TripReleaseC),
		uint64(p.TripCapMHz), uint64(len(p.Clusters)))
	for i := range p.Clusters {
		c := &p.Clusters[i]
		k = appendString(k, c.Name)
		k = append(k, uint64(c.Kind), uint64(c.NumCores), f(c.CdynCoreNF), f(c.LeakCoeff), f(c.LeakTempCoeff),
			uint64(len(c.OPPs)))
		for _, o := range c.OPPs {
			k = append(k, uint64(o.FreqMHz), f(o.VoltV))
		}
	}
	k = append(k, uint64(len(n.Nodes)))
	for _, nd := range n.Nodes {
		k = appendString(k, nd.Name)
		k = append(k, f(nd.HeatCapJ))
	}
	k = append(k, uint64(len(n.Links)))
	for _, l := range n.Links {
		k = append(k, uint64(l.A), uint64(l.B), f(l.ResCW))
	}
	return k
}

func appendString(k []uint64, s string) []uint64 {
	k = append(k, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		k = append(k, uint64(s[i]))
	}
	return k
}

// hashKey is 64-bit FNV-1a over the key's words.
func hashKey(k []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range k {
		h = (h ^ w) * 1099511628211
	}
	return h
}
