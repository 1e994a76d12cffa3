package platform

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"micrograd/internal/knobs"
	"micrograd/internal/microprobe"
)

// Evaluation identity: one evaluation's result is determined by the
// platform (core spec, chip topology, floorplan), the synthesizer options
// (the kernel content), the evaluation options (window length, seed,
// clock, power collection) and the knob configuration (which also carries
// the per-core FREQ_GHZ / PHASE_OFFSET knobs). EvalKeyer canonically
// serializes and hashes everything that is fixed for a tuning run into one
// prefix, and appends the per-candidate parts — the effective simulation
// window and the configuration key — in the clear. Two evaluators built
// over the same identity produce the same keys, which is what lets one
// shared cache serve many concurrent jobs.

// Identifier is implemented by platforms whose evaluation results are fully
// determined by a canonical identity string (plus the per-request options
// and configuration). SimPlatform and multicore.CoRunPlatform implement it;
// platforms that do not are keyed by Name(), which confines cache sharing
// to evaluators holding the same nominal platform.
type Identifier interface {
	EvalIdentity() string
}

// EvalIdentity implements Identifier: the full core spec, canonically
// rendered (struct fields in declaration order, map keys sorted by fmt) on
// the first call. It is safe for concurrent use.
func (s *SimPlatform) EvalIdentity() string {
	s.identityOnce.Do(func() { s.identity = specIdentity(s.spec) })
	return s.identity
}

// specIdentity renders a core spec's evaluation identity.
func specIdentity(spec CoreSpec) string { return fmt.Sprintf("sim|%+v", spec) }

// EvalIdentityOf returns the platform's evaluation identity, falling back
// to its name for platforms without a canonical one.
func EvalIdentityOf(p Platform) string {
	if id, ok := p.(Identifier); ok {
		return id.EvalIdentity()
	}
	return p.Name()
}

// EffectiveInstructions resolves the simulation window the options select
// after defaulting and fidelity scaling — the windowed part of an
// evaluation's cache identity. Distinct fidelities that scale (or floor) to
// the same window share one key, because they run the same simulation.
func (o EvalOptions) EffectiveInstructions() int {
	return o.normalized().DynamicInstructions
}

// EvalKeyer builds content-addressed cache keys for the evaluations of one
// (platform identity, synthesizer options, base evaluation options)
// combination. The zero value is not usable; build one with NewEvalKeyer.
type EvalKeyer struct {
	prefix string
	base   EvalOptions
}

// NewEvalKeyer hashes the run-constant identity parts into the key prefix.
// Of the base options, DynamicInstructions and Fidelity are folded into the
// per-candidate part instead (they select the window, which reduced-fidelity
// evaluations change per call); Seed, CollectPower and FrequencyGHz are
// part of the constant identity.
func NewEvalKeyer(identity string, synth microprobe.Options, base EvalOptions) EvalKeyer {
	sum := sha256.Sum256(fmt.Appendf(nil, "platform=%s\x00synth=%+v\x00seed=%d|power=%t|freq=%g",
		identity, synth, base.Seed, base.CollectPower, base.FrequencyGHz))
	return EvalKeyer{prefix: hex.EncodeToString(sum[:]), base: base}
}

// appendHead appends the key head of an n-instruction window,
// "<prefix>|n<n>|", to b.
func (k EvalKeyer) appendHead(b []byte, n int) []byte {
	b = append(append(b, k.prefix...), "|n"...)
	return append(strconv.AppendInt(b, int64(n), 10), '|')
}

// Key returns the content-addressed key of evaluating cfg at the given
// fidelity (values outside (0,1) mean full fidelity),
// "<prefix>|n<window>|<cfg.Key()>". The returned string is its only
// allocation.
func (k EvalKeyer) Key(cfg knobs.Config, fidelity float64) string {
	o := k.base
	o.Fidelity = fidelity
	var buf [keyBuf]byte
	return string(append(k.appendHead(buf[:0], o.EffectiveInstructions()), cfg.Key()...))
}

// keyBuf is the stack buffer size a key is built in: the
// 64-digit prefix, the window and a configuration key of up to about 150
// bytes. Longer keys spill to the heap.
const keyBuf = 256
