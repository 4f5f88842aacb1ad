package main

import (
	"fmt"
	"os"

	"gfmap/internal/core"
	"gfmap/internal/network"
)

// checker accounts for every operation's correctness, outside the timed
// regions. A netlist passes when it is byte-identical to one already
// proven correct — a digest recorded in digests.json (recorded only after
// both verifiers passed) or a netlist verified earlier in this run for the
// same input text — or when core.VerifyEquivalence and
// core.VerifyHazardSafety pass on it now.
type checker struct {
	recorded map[string]string
	verified map[string]bool // digest(input text) + digest(netlist)

	// record re-verifies every netlist and collects its digest.
	record    bool
	recordOut map[string]string

	attempted, failed        int
	digestChecks, mismatches int
	shown                    int
}

func newChecker(record bool) (*checker, error) {
	rec, err := loadDigests()
	if err != nil && !(record && os.IsNotExist(err)) {
		return nil, err
	}
	return &checker{recorded: rec, verified: map[string]bool{}, record: record, recordOut: map[string]string{}}, nil
}

// fail counts one failed operation and reports the first few on stderr.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.shown < 10 {
		c.shown++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

// proven reports whether netlist digest d of input in needs no new
// verification, and counts the digest comparison for keyed inputs.
func (c *checker) proven(in input, d string) bool {
	if in.Key != "" && !c.record {
		c.digestChecks++
		if c.recorded[in.Key] != d {
			c.mismatches++
			if c.shown < 10 {
				c.shown++
				fmt.Fprintf(os.Stderr, "perfbench: netlist digest of %s differs from digests.json\n", in.Key)
			}
		} else {
			return true
		}
	}
	return c.verified[digest(in.Text)+d]
}

// verifyNetlist runs both verifiers on a netlist mapped from net.
func verifyNetlist(net *network.Network, nl *core.Netlist) error {
	if err := core.VerifyEquivalence(net, nl); err != nil {
		return err
	}
	rep, err := core.VerifyHazardSafety(net, nl)
	if err != nil {
		return fmt.Errorf("hazard safety: %w", err)
	}
	if !rep.Clean() {
		return fmt.Errorf("mapping added hazards: %s", rep)
	}
	return nil
}

// settle accounts for a verification of netlist digest d of input in.
func (c *checker) settle(in input, d string, err error) {
	if err != nil {
		c.fail("%s on %s: %v", in.Name, in.Lib, err)
		return
	}
	c.verified[digest(in.Text)+d] = true
	if c.record && in.Key != "" {
		c.recordOut[in.Key] = d
	}
}

// checkMapped checks a netlist the benchmark mapped itself.
func (c *checker) checkMapped(in input, net *network.Network, nl *core.Netlist) {
	d := digest(nl.String())
	if c.proven(in, d) {
		return
	}
	c.settle(in, d, verifyNetlist(net, nl))
}

func (c *checker) okFrac() float64 {
	return 1 - ratio(float64(c.failed), float64(c.attempted))
}

func (c *checker) digestMatchFrac() float64 {
	if c.digestChecks == 0 {
		return 1
	}
	return 1 - ratio(float64(c.mismatches), float64(c.digestChecks))
}

func (c *checker) correct() bool { return c.failed == 0 && c.mismatches == 0 }
