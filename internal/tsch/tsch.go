// Package tsch is a compact time-slotted channel-hopping MAC in the
// spirit of IEEE 802.15.4e: a repeating slotframe of fixed-length
// timeslots, dedicated (slot, channelOffset) cells between node pairs, and
// per-slot frequency hopping
//
//	frequency = HopSequence[(ASN + channelOffset) mod len(HopSequence)]
//
// with ASN the absolute slot number. Dedicated cells transmit without
// CSMA; concurrency comes entirely from the channel dimension — which is
// exactly where the paper's thesis bites: a non-orthogonal hop set at
// CFD = 3 MHz offers six usable channel offsets on the 15 MHz band where
// the orthogonal set offers four.
//
// Scope notes: nodes are time-synchronised by construction (the simulator
// shares one clock; real TSCH spends enhanced beacons and keepalives on
// this), schedules are static, and cells are transmit-dedicated (no
// shared/CSMA cells).
package tsch

import (
	"fmt"
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/radio"
	"nonortho/internal/sim"
)

// DefaultSlotDuration matches the 802.15.4e default timeslot template
// (10 ms).
const DefaultSlotDuration = 10 * time.Millisecond

// TxOffset delays the transmission inside the slot (TsTxOffset-like guard
// so receivers are tuned before the preamble arrives).
const TxOffset = 2 * time.Millisecond

// Cell is a dedicated transmit opportunity.
type Cell struct {
	// Slot is the slot offset within the slotframe.
	Slot int
	// ChannelOffset selects the hop-sequence lane.
	ChannelOffset int
	// Sender and Receiver are the cell's endpoints.
	Sender, Receiver frame.Address
}

// Schedule is a complete static TSCH schedule.
type Schedule struct {
	// SlotframeLen is the number of slots per slotframe.
	SlotframeLen int
	// SlotDuration is the timeslot length (default 10 ms).
	SlotDuration time.Duration
	// HopSequence lists the channel center frequencies hopped over.
	HopSequence []phy.MHz
	// Cells are the dedicated links.
	Cells []Cell
}

// Validate checks structural constraints: offsets within bounds and no two
// cells colliding on the same (slot, channelOffset).
func (s Schedule) Validate() error {
	if s.SlotframeLen < 1 {
		return fmt.Errorf("tsch: slotframe length %d < 1", s.SlotframeLen)
	}
	if len(s.HopSequence) == 0 {
		return fmt.Errorf("tsch: empty hop sequence")
	}
	seen := make(map[[2]int]Cell, len(s.Cells))
	for _, c := range s.Cells {
		if c.Slot < 0 || c.Slot >= s.SlotframeLen {
			return fmt.Errorf("tsch: cell slot %d outside slotframe of %d", c.Slot, s.SlotframeLen)
		}
		if c.ChannelOffset < 0 || c.ChannelOffset >= len(s.HopSequence) {
			return fmt.Errorf("tsch: channel offset %d outside hop sequence of %d",
				c.ChannelOffset, len(s.HopSequence))
		}
		key := [2]int{c.Slot, c.ChannelOffset}
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("tsch: cells %v and %v collide on slot %d offset %d",
				prev, c, c.Slot, c.ChannelOffset)
		}
		seen[key] = c
	}
	return nil
}

// slotDuration returns the configured or default slot length.
func (s Schedule) slotDuration() time.Duration {
	if s.SlotDuration > 0 {
		return s.SlotDuration
	}
	return DefaultSlotDuration
}

// Frequency returns the channel used by a channel offset at the given ASN.
func (s Schedule) Frequency(asn int64, channelOffset int) phy.MHz {
	n := int64(len(s.HopSequence))
	return s.HopSequence[int((asn+int64(channelOffset))%n)]
}

// Node is one TSCH participant.
type Node struct {
	kernel   *sim.Kernel
	radio    *radio.Radio
	schedule Schedule

	queue     []*frame.Frame
	sent      int
	received  int
	collected map[frame.Address]int

	// OnReceive delivers CRC-clean frames addressed to this node.
	OnReceive func(radio.Reception)
}

// NewNode attaches a TSCH node to the network. The schedule must already
// be validated by the caller (Network does this).
func NewNode(k *sim.Kernel, r *radio.Radio, schedule Schedule) *Node {
	n := &Node{
		kernel:    k,
		radio:     r,
		schedule:  schedule,
		collected: make(map[frame.Address]int),
	}
	r.OnReceive = func(rcv radio.Reception) {
		if !rcv.CRCOK || rcv.Frame.Dst != r.Address() {
			return
		}
		n.received++
		n.collected[rcv.Frame.Src]++
		if n.OnReceive != nil {
			n.OnReceive(rcv)
		}
	}
	return n
}

// Radio exposes the node's radio.
func (n *Node) Radio() *radio.Radio { return n.radio }

// Send queues a frame (Dst/Src must match a scheduled cell to ever leave).
func (n *Node) Send(f *frame.Frame) bool {
	if len(n.queue) >= 128 {
		return false
	}
	n.queue = append(n.queue, f)
	return true
}

// QueueLen reports pending frames.
func (n *Node) QueueLen() int { return len(n.queue) }

// Sent and Received report MAC counters.
func (n *Node) Sent() int { return n.sent }

// Received counts CRC-clean frames addressed to this node.
func (n *Node) Received() int { return n.received }

// ReceivedFrom reports per-origin delivery counts.
func (n *Node) ReceivedFrom(src frame.Address) int { return n.collected[src] }

// popFor removes and returns the first queued frame destined to dst.
func (n *Node) popFor(dst frame.Address) *frame.Frame {
	for i, f := range n.queue {
		if f.Dst == dst {
			n.queue = append(n.queue[:i], n.queue[i+1:]...)
			return f
		}
	}
	return nil
}

// Network drives a set of nodes through a shared schedule.
type Network struct {
	kernel   *sim.Kernel
	schedule Schedule
	nodes    map[frame.Address]*Node
	asn      int64
	running  bool
}

// NewNetwork validates the schedule and prepares the slot engine.
func NewNetwork(k *sim.Kernel, schedule Schedule) (*Network, error) {
	if err := schedule.Validate(); err != nil {
		return nil, err
	}
	return NewNetworkUnchecked(k, schedule)
}

// NewNetworkUnchecked skips the lane-collision check, for studies that
// deliberately oversubscribe channel offsets (two cells on the same
// (slot, offset) transmit concurrently and collide on the air — the
// situation a too-small orthogonal hop set forces). Structural bounds are
// still enforced by the slot engine indexing.
func NewNetworkUnchecked(k *sim.Kernel, schedule Schedule) (*Network, error) {
	if schedule.SlotframeLen < 1 || len(schedule.HopSequence) == 0 {
		return nil, fmt.Errorf("tsch: malformed schedule")
	}
	return &Network{
		kernel:   k,
		schedule: schedule,
		nodes:    make(map[frame.Address]*Node),
	}, nil
}

// AddNode creates a TSCH node on the medium at the given position.
func (nw *Network) AddNode(m *medium.Medium, addr frame.Address, pos phy.Position, power phy.DBm) *Node {
	r := radio.New(nw.kernel, m, radio.Config{
		Pos:          pos,
		Freq:         nw.schedule.HopSequence[0],
		TxPower:      power,
		CCAThreshold: phy.DefaultCCAThreshold,
		Address:      addr,
	})
	n := NewNode(nw.kernel, r, nw.schedule)
	nw.nodes[addr] = n
	return n
}

// Node returns the node with the given address (nil if absent).
func (nw *Network) Node(addr frame.Address) *Node { return nw.nodes[addr] }

// Start begins executing the slotframe from the current instant.
func (nw *Network) Start() {
	if nw.running {
		return
	}
	nw.running = true
	nw.slot()
}

// Stop halts the slot engine after the current slot.
func (nw *Network) Stop() { nw.running = false }

// slot executes one timeslot: tune every scheduled endpoint, fire the
// senders after TxOffset, advance the ASN.
func (nw *Network) slot() {
	if !nw.running {
		return
	}
	slotIdx := int(nw.asn % int64(nw.schedule.SlotframeLen))
	for _, c := range nw.schedule.Cells {
		if c.Slot != slotIdx {
			continue
		}
		freq := nw.schedule.Frequency(nw.asn, c.ChannelOffset)
		if rxNode, ok := nw.nodes[c.Receiver]; ok {
			rxNode.radio.SetFreq(freq)
		}
		txNode, ok := nw.nodes[c.Sender]
		if !ok {
			continue
		}
		txNode.radio.SetFreq(freq)
		c := c
		nw.kernel.After(TxOffset, func() {
			f := txNode.popFor(c.Receiver)
			if f == nil {
				return
			}
			if _, err := txNode.radio.Transmit(f); err == nil {
				txNode.sent++
			}
		})
	}
	nw.kernel.After(nw.schedule.slotDuration(), func() {
		nw.asn++
		nw.slot()
	})
}
