package compat

import (
	"context"
	"fmt"

	"cghti/internal/artifact"
	"cghti/internal/atpg"
	"cghti/internal/netlist"
	"cghti/internal/pipeline"
	"cghti/internal/rare"
	"cghti/internal/stage"
)

// CubeStage adapts PODEM cube generation (the vertex half of
// Algorithm 2) to the pipeline stage graph. Inputs: the levelized
// netlist, the rare set. Output: a *Graph with vertices and cubes but
// no edges.
type CubeStage struct {
	Cfg BuildConfig
}

// NewCubeStage returns the cube-generation stage adapter.
func NewCubeStage(cfg BuildConfig) *CubeStage { return &CubeStage{Cfg: cfg} }

// Name implements pipeline.Stage.
func (s *CubeStage) Name() string { return stage.CubeGen }

// Run implements pipeline.Stage.
func (s *CubeStage) Run(ctx context.Context, env *pipeline.Env, inputs []pipeline.Artifact) (pipeline.Artifact, error) {
	n := inputs[0].(*netlist.Netlist)
	rs := inputs[1].(*rare.Set)
	cfg := s.Cfg
	cfg.Progress = env.Progress(stage.CubeGen)
	return BuildCubes(ctx, n, rs, cfg)
}

// Salvage implements pipeline.Degradable: an interrupted build keeps
// the cubes generated so far (rarest candidates first, so the best
// trigger material survives); no vertices means nothing to mine.
func (s *CubeStage) Salvage(out pipeline.Artifact) (done, total int, detail string, ok bool) {
	g, _ := out.(*Graph)
	if g == nil || len(g.Nodes) == 0 {
		return 0, 0, "", false
	}
	return g.CubesDone, g.CubesTotal,
		fmt.Sprintf("%d cubes from %d of %d rare-node candidates", len(g.Nodes), g.CubesDone, g.CubesTotal), true
}

// CacheConfig implements pipeline.Cacheable. Workers and Partitions
// are excluded (identical cubes for any count — partitioning changes
// only which PODEM engine justifies a node); the effective PODEM budget
// is normalized so 0 and the explicit default fingerprint equally. The
// v3 tag tracks the graph codec bump, not a semantic change.
func (s *CubeStage) CacheConfig() []byte {
	maxBT := s.Cfg.MaxBacktracks
	if maxBT <= 0 {
		maxBT = atpg.DefaultMaxBacktracks
	}
	e := artifact.NewEnc()
	e.String("compat.cubes.v3")
	e.Int(maxBT)
	e.Int(s.Cfg.MaxNodes)
	return e.Finish()
}

// Encode implements pipeline.Cacheable.
func (s *CubeStage) Encode(out pipeline.Artifact) ([]byte, error) {
	return EncodeGraph(out.(*Graph)), nil
}

// Decode implements pipeline.Cacheable.
func (s *CubeStage) Decode(data []byte) (pipeline.Artifact, error) {
	return DecodeGraph(data)
}

// EdgeStage adapts pairwise edge construction (the edge half of
// Algorithm 2) to the pipeline stage graph. Input: the cube graph from
// CubeStage. Output: the same *Graph, now with adjacency.
type EdgeStage struct {
	Cfg BuildConfig
}

// NewEdgeStage returns the edge-construction stage adapter.
func NewEdgeStage(cfg BuildConfig) *EdgeStage { return &EdgeStage{Cfg: cfg} }

// Name implements pipeline.Stage.
func (s *EdgeStage) Name() string { return stage.GraphEdges }

// Run implements pipeline.Stage.
func (s *EdgeStage) Run(ctx context.Context, env *pipeline.Env, inputs []pipeline.Artifact) (pipeline.Artifact, error) {
	g := inputs[0].(*Graph)
	cfg := s.Cfg
	cfg.Progress = nil
	return g, g.ConnectEdges(ctx, cfg)
}

// Salvage implements pipeline.Degradable: an interrupted pass leaves a
// sound under-approximation (every recorded edge is a verified
// compatibility), so mining can always proceed.
func (s *EdgeStage) Salvage(out pipeline.Artifact) (done, total int, detail string, ok bool) {
	g, _ := out.(*Graph)
	if g == nil {
		return 0, 0, "", false
	}
	return g.EdgeRowsDone, g.EdgeRowsTotal,
		fmt.Sprintf("%d edges from %d of %d adjacency rows", g.NumEdges(), g.EdgeRowsDone, g.EdgeRowsTotal), true
}

// CacheConfig implements pipeline.Cacheable: edge construction reads no
// configuration beyond its input cubes (Workers and Partitions do not
// change the edges). The v3 tag tracks the graph codec bump.
func (s *EdgeStage) CacheConfig() []byte {
	e := artifact.NewEnc()
	e.String("compat.edges.v3")
	return e.Finish()
}

// Encode implements pipeline.Cacheable.
func (s *EdgeStage) Encode(out pipeline.Artifact) ([]byte, error) {
	return EncodeGraph(out.(*Graph)), nil
}

// Decode implements pipeline.Cacheable.
func (s *EdgeStage) Decode(data []byte) (pipeline.Artifact, error) {
	return DecodeGraph(data)
}

// MineStage adapts clique mining to the pipeline stage graph. Input:
// the complete compatibility graph. Output: the stealth-sorted []Clique.
type MineStage struct {
	Cfg MineConfig

	g *Graph // the graph mined, recorded by Run for Validate's message
}

// NewMineStage returns the clique-mining stage adapter.
func NewMineStage(cfg MineConfig) *MineStage { return &MineStage{Cfg: cfg} }

// Name implements pipeline.Stage.
func (s *MineStage) Name() string { return stage.CliqueMine }

// Run implements pipeline.Stage. The clique list is stealth-sorted even
// on the interrupted path, so a salvaged partial list has the same
// ordering contract as a complete one.
func (s *MineStage) Run(ctx context.Context, env *pipeline.Env, inputs []pipeline.Artifact) (pipeline.Artifact, error) {
	g := inputs[0].(*Graph)
	s.g = g
	cliques, err := g.FindCliquesContext(ctx, s.Cfg)
	g.SortByStealth(cliques)
	return cliques, err
}

// Salvage implements pipeline.Degradable: every clique found before an
// interruption is complete and maximal in its own right.
func (s *MineStage) Salvage(out pipeline.Artifact) (done, total int, detail string, ok bool) {
	cliques, _ := out.([]Clique)
	if len(cliques) == 0 {
		return 0, 0, "", false
	}
	target := s.Cfg.MaxCliques
	return len(cliques), target, fmt.Sprintf("%d of %d cliques mined", len(cliques), target), true
}

// Validate implements pipeline.Validator: no clique of the required
// size means no trigger set exists in the mined graph.
func (s *MineStage) Validate(out pipeline.Artifact) error {
	cliques := out.([]Clique)
	if len(cliques) == 0 {
		nv, ne := 0, 0
		if s.g != nil {
			nv, ne = s.g.NumVertices(), s.g.NumEdges()
		}
		return fmt.Errorf("cghti: no clique with >= %d compatible rare nodes (graph: %d vertices, %d edges)",
			s.Cfg.MinSize, nv, ne)
	}
	return nil
}

// CacheConfig implements pipeline.Cacheable, with the mining bounds
// normalized the same way FindCliquesContext normalizes them so 0 and
// the effective default fingerprint equally.
func (s *MineStage) CacheConfig() []byte {
	cfg := s.Cfg
	if cfg.MinSize <= 0 {
		cfg.MinSize = 2
	}
	if cfg.MaxCliques <= 0 {
		cfg.MaxCliques = 1000
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 40 * cfg.MaxCliques
	}
	if cfg.MaxDupStreak == 0 {
		cfg.MaxDupStreak = DefaultMaxDupStreak
	}
	e := artifact.NewEnc()
	e.String("compat.mine.v2")
	e.Int(cfg.MinSize)
	e.Int(cfg.MaxCliques)
	e.Int(cfg.Attempts)
	e.Int(cfg.MaxDupStreak)
	e.Varint(cfg.Seed)
	return e.Finish()
}

// Encode implements pipeline.Cacheable.
func (s *MineStage) Encode(out pipeline.Artifact) ([]byte, error) {
	return EncodeCliques(out.([]Clique)), nil
}

// Decode implements pipeline.Cacheable.
func (s *MineStage) Decode(data []byte) (pipeline.Artifact, error) {
	return DecodeCliques(data)
}

// BuildCached is BuildContext behind cache: a hit returns the stored
// complete graph (cubes and edges) without running PODEM or the
// pairwise pass; a clean miss stores the fresh graph. The rare set is
// keyed by the content hash of its encoding — sweeps that re-derive,
// cap, or re-threshold sets still key correctly. A nil cache, an
// unserializable netlist, or an interrupted build degrade to plain
// BuildContext behavior.
func BuildCached(ctx context.Context, c *artifact.Cache, n *netlist.Netlist, rs *rare.Set, cfg BuildConfig) (*Graph, error) {
	if c == nil {
		return BuildContext(ctx, n, rs, cfg)
	}
	base := artifact.NetlistFingerprint(n)
	if base.IsZero() {
		return BuildContext(ctx, n, rs, cfg)
	}
	cubeStage := NewCubeStage(cfg)
	edgeStage := NewEdgeStage(cfg)
	rsFP := artifact.Hash(rare.EncodeSet(rs))
	cubeFP := artifact.Derive(stage.CubeGen, cubeStage.CacheConfig(), base, rsFP)
	edgeFP := artifact.Derive(stage.GraphEdges, edgeStage.CacheConfig(), cubeFP)
	if data, ok := c.GetCtx(ctx, edgeFP); ok {
		if g, err := DecodeGraph(data); err == nil {
			return g, nil
		}
	}
	g, err := BuildContext(ctx, n, rs, cfg)
	if err == nil && g != nil {
		c.PutCtx(ctx, edgeFP, EncodeGraph(g))
	}
	return g, err
}
