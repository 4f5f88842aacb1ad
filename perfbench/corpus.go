package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gfmap/internal/bench"
	"gfmap/internal/blif"
	"gfmap/internal/bmspec"
	"gfmap/internal/diffcheck"
	"gfmap/internal/eqn"
	"gfmap/internal/network"
)

// input is one design as the program receives it: source text in a named
// format. Key names the (input, library) pair in digests.json; inputs that
// depend on the seed have no key.
type input struct {
	Key    string
	Name   string
	Format string // "eqn", "blif" or "spec"
	Lib    string
	Text   string
}

// scaleFactors is the replication series of scale-lsi9k.
var scaleFactors = []int{1, 2, 4, 8}

// paperCorpus is the paper's Table 5 suite plus the four synthetic
// designs, each as eqn text. Writing eqn keeps every node's multi-level
// structure, which is what the hazard filter judges; BLIF would flatten
// it to SOP (see README.md, "Known program defect").
func paperCorpus(lib string) ([]input, error) {
	ds, err := bench.Designs()
	if err != nil {
		return nil, err
	}
	synth, err := bench.SynthDesigns()
	if err != nil {
		return nil, err
	}
	var out []input
	for _, d := range append(append([]*bench.Design(nil), ds...), synth...) {
		out = append(out, eqnInput(d.Name, lib, d.Net))
	}
	return out, nil
}

// scaleCorpus is dean-ctrl replicated 1x, 2x, 4x and 8x with renamed
// signals, as eqn text.
func scaleCorpus(lib string) ([]input, error) {
	dean, err := bench.DesignByName("dean-ctrl")
	if err != nil {
		return nil, err
	}
	var out []input
	for _, k := range scaleFactors {
		name := fmt.Sprintf("dean-ctrl-x%d", k)
		net, err := bench.Replicate(name, dean.Net, k, 0, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, eqnInput(name, lib, net))
	}
	return out, nil
}

func eqnInput(name, lib string, net *network.Network) input {
	return input{Key: lib + "/eqn/" + name, Name: name, Format: "eqn", Lib: lib, Text: eqn.WriteString(net)}
}

// serveLibs are the libraries asyncmapd preloads for serve-mixed.
var serveLibs = []string{"LSI9K", "Actel"}

// smallPaperDesigns are the paper designs serve-mixed sends to /map: the
// Table 5 designs small enough to answer in milliseconds.
var smallPaperDesigns = []string{"chu-ad-opt", "dme-fast-opt", "dme-fast", "dme-opt", "dme", "pe-send-ifc", "vanbek-opt"}

// serveFixed is serve-mixed's seed-independent request set: each small
// paper design as BLIF and each burst-mode spec (the eight controller
// slices plus examples/vme.bm), on every preloaded library.
func serveFixed() ([]input, error) {
	vme, err := os.ReadFile(filepath.Join("examples", "vme.bm"))
	if err != nil {
		return nil, err
	}
	specs := bench.SliceSources()
	specs["vme"] = string(vme)
	var out []input
	for _, lib := range serveLibs {
		for _, name := range smallPaperDesigns {
			d, err := bench.DesignByName(name)
			if err != nil {
				return nil, err
			}
			text, err := blif.WriteString(d.Net)
			if err != nil {
				return nil, err
			}
			out = append(out, input{Key: lib + "/blif/" + name, Name: name, Format: "blif", Lib: lib, Text: text})
		}
		names := make([]string, 0, len(specs))
		for n := range specs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			out = append(out, input{Key: lib + "/spec/" + name, Name: name, Format: "spec", Lib: lib, Text: specs[name]})
		}
	}
	return out, nil
}

// freshDesign is serve-mixed's i-th seed-generated design: a new
// diffcheck network, sent as eqn, that no earlier request has mapped. It
// has five inputs and no wide nodes: the mapper does about the same work
// as on the generator's default shape (~2.4 ms, ~125 hazard checks per
// design), while the exact hazard-safety check of each served netlist
// costs ~7 ms instead of ~25-96 ms.
func freshDesign(seed uint64, i int, lib string) input {
	net := diffcheck.Generate(seed<<20|uint64(i), diffcheck.GenConfig{Inputs: 5, WidePeriod: -1})
	return input{Name: net.Name, Format: "eqn", Lib: lib, Text: eqn.WriteString(net)}
}

// sourceNetwork is the network a served netlist must be equivalent to
// and no more hazardous than: the parsed design, or for a spec the
// network burst-mode synthesis builds from it.
func sourceNetwork(in input) (*network.Network, error) {
	switch in.Format {
	case "spec":
		m, err := bmspec.ParseString(in.Text)
		if err != nil {
			return nil, err
		}
		syn, err := bmspec.Synthesize(m)
		if err != nil {
			return nil, err
		}
		return syn.Net, nil
	case "blif":
		return blif.Parse(strings.NewReader(in.Text), in.Name)
	default:
		return eqn.Parse(strings.NewReader(in.Text), in.Name)
	}
}

// shuffled returns a seed-derived permutation of inputs.
func shuffled(rng *rand.Rand, in []input) []input {
	out := append([]input(nil), in...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// digestsPath holds the netlist digests recorded for the seed-independent
// inputs. A digest is recorded only after core.VerifyEquivalence and
// core.VerifyHazardSafety passed on that netlist.
var digestsPath = filepath.Join("perfbench", "digests.json")

func loadDigests() (map[string]string, error) {
	data, err := os.ReadFile(digestsPath)
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsPath, err)
	}
	return m, nil
}

// saveDigests merges rec into the recorded digests.
func saveDigests(rec map[string]string) error {
	m, err := loadDigests()
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if m == nil {
		m = map[string]string{}
	}
	for k, v := range rec {
		m[k] = v
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(data, '\n'), 0o644)
}
