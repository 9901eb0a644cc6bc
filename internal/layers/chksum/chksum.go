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
	pfx   [binary.MaxVarintLen64]byte // the wire form's length prefix; the CRC
	// routines defeat escape analysis, so a stack-local would allocate per packet
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
		// The CRC is a hash, not a count: its value fills all 32 bits, so
		// it keeps four fixed bytes where integers are as wide as their
		// values.
		var crc [4]byte
		binary.BigEndian.PutUint32(crc[:], k.sum(ev.Msg))
		ev.Msg.Push(crc[:])
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
		want := binary.BigEndian.Uint32(ev.Msg.Pop(4))
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

// sum is the CRC-32 of m's wire form, [hdrlen][headers][body],
// computed over the message where it lies instead of over a marshalled
// copy.
func (k *Chksum) sum(m *message.Message) uint32 {
	hdr := m.Header()
	n := binary.PutUvarint(k.pfx[:], uint64(len(hdr)))
	sum := crc32.ChecksumIEEE(k.pfx[:n])
	sum = crc32.Update(sum, crc32.IEEETable, hdr)
	return crc32.Update(sum, crc32.IEEETable, m.Body())
}
