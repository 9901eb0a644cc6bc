// Package chksum implements the checksumming layer of the paper's §2
// example: "a simple protocol that adds a (large enough) checksum to
// each message could be used to reduce the garbling problem to a
// statistically insignificant rate." The layer has functionality on
// both sides: the sender pushes a CRC-32 over the message's wire form,
// and the receiver drops the message if the checksum does not match.
//
// Properties: requires P1; provides protection that upgrades the
// network's garbling behaviour to clean loss (which NAK then repairs).
package chksum

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"horus/internal/core"
	"horus/internal/message"
)

// Chksum is one checksum layer instance.
type Chksum struct {
	core.Base
	stats Stats
	pfx   [4]byte // the wire form's length prefix; the CRC routines
	// defeat escape analysis, so a stack-local would allocate per packet
}

// Stats counts checksum activity.
type Stats struct {
	Protected int // messages checksummed on the way down
	Verified  int // messages that passed verification
	Dropped   int // messages dropped for checksum mismatch
}

// New returns a checksum layer.
func New() core.Layer { return &Chksum{} }

// Name implements core.Layer.
func (k *Chksum) Name() string { return "CHKSUM" }

// Stats returns a snapshot of the layer's counters.
func (k *Chksum) Stats() Stats { return k.stats }

// Down implements core.Layer.
func (k *Chksum) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend, core.DLocate:
		ev.Msg.PushUint32(k.sum(ev.Msg))
		k.stats.Protected++
		k.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("CHKSUM: protected=%d verified=%d dropped=%d",
			k.stats.Protected, k.stats.Verified, k.stats.Dropped))
		k.Ctx.Down(ev)
	default:
		k.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (k *Chksum) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend, core.ULocate:
		want := ev.Msg.PopUint32()
		if k.sum(ev.Msg) != want {
			k.stats.Dropped++
			return
		}
		k.stats.Verified++
		k.Ctx.Up(ev)
	default:
		k.Ctx.Up(ev)
	}
}

// sum is the CRC-32 of m's wire form, [u32 hdrlen][headers][body],
// computed over the message where it lies instead of over a marshalled
// copy.
func (k *Chksum) sum(m *message.Message) uint32 {
	hdr := m.Header()
	binary.BigEndian.PutUint32(k.pfx[:], uint32(len(hdr)))
	sum := crc32.ChecksumIEEE(k.pfx[:])
	sum = crc32.Update(sum, crc32.IEEETable, hdr)
	return crc32.Update(sum, crc32.IEEETable, m.Body())
}

// Transparent implements core.Skipper: the checksum layer acts only on
// message-bearing events; everything else passes verbatim and the
// stack may skip this layer entirely (§10 item 1).
func (k *Chksum) Transparent(t core.EventType, down bool) bool {
	if down {
		switch t {
		case core.DCast, core.DSend, core.DLocate, core.DDump:
			return false
		}
		return true
	}
	switch t {
	case core.UCast, core.USend, core.ULocate:
		return false
	}
	return true
}
