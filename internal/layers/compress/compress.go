// Package compress implements the compression layer (Figure 1: "to
// improve bandwidth use").
//
// The whole message content — upper headers plus body — is deflated;
// a one-byte header records whether compression was applied, since
// incompressible content is sent verbatim rather than enlarged.
package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"horus/internal/core"
	"horus/internal/message"
)

const (
	rawForm        = 0
	compressedForm = 1
)

// Compress is one compression layer instance.
type Compress struct {
	core.Base
	stats Stats
}

// Stats counts compression activity.
type Stats struct {
	Compressed     int // messages sent deflated
	Incompressible int // messages sent verbatim
	BytesIn        int
	BytesOut       int
	Rejected       int // undecodable arrivals dropped
}

// New returns a compression layer; it deflates at flate's default
// level.
func New() core.Layer { return &Compress{} }

// Name implements core.Layer.
func (c *Compress) Name() string { return "COMPRESS" }

// Stats returns a snapshot of the layer's counters.
func (c *Compress) Stats() Stats { return c.stats }

// Down implements core.Layer.
func (c *Compress) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend:
		plain := ev.Msg.Marshal()
		c.stats.BytesIn += len(plain)
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err == nil {
			_, err = w.Write(plain)
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil || buf.Len() >= len(plain) {
			m := message.New(plain)
			m.PushUint8(rawForm)
			ev.Msg = m
			c.stats.Incompressible++
			c.stats.BytesOut += len(plain)
			c.Ctx.Down(ev)
			return
		}
		m := message.New(buf.Bytes())
		m.PushUint8(compressedForm)
		ev.Msg = m
		c.stats.Compressed++
		c.stats.BytesOut += buf.Len()
		c.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("COMPRESS: deflated=%d raw=%d in=%dB out=%dB",
			c.stats.Compressed, c.stats.Incompressible, c.stats.BytesIn, c.stats.BytesOut))
		c.Ctx.Down(ev)
	default:
		c.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (c *Compress) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend:
		form := ev.Msg.PopUint8()
		data := ev.Msg.Body()
		if form == compressedForm {
			out, err := io.ReadAll(flate.NewReader(bytes.NewReader(data)))
			if err != nil {
				c.stats.Rejected++
				return
			}
			data = out
		}
		inner, err := message.Unmarshal(data)
		if err != nil {
			c.stats.Rejected++
			return
		}
		ev.Msg = inner
		c.Ctx.Up(ev)
	default:
		c.Ctx.Up(ev)
	}
}
