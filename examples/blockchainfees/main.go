// Blockchain fees end to end: a simulated network of full nodes — two of
// them miners — where wallets submit fee-bearing transactions through
// the privacy broadcast and miners race to include them. Demonstrates
// the §II scenario: fees reward the miner whose mempool got the
// transaction first, which is why broadcast latency ties into fairness.
//
//	go run ./examples/blockchainfees
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/dcnet"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/topology"
)

func main() {
	const (
		n       = 60
		degree  = 6
		txCount = 12
	)
	miners := map[proto.NodeID]bool{10: true, 40: true}
	group := []proto.NodeID{1, 2, 3, 4, 5}

	rng := rand.New(rand.NewPCG(7, 8))
	g, err := topology.RandomRegular(n, degree, rng)
	if err != nil {
		log.Fatal(err)
	}
	net := sim.NewNetwork(g, sim.Options{Seed: 11, Latency: sim.ConstLatency(10 * time.Millisecond)})

	handlers, err := stack.Spec{
		Protocol: stack.Composed, Group: group, Hashes: core.SimHashes(n),
		D: 3, ADInterval: 100 * time.Millisecond,
		DCMode: dcnet.ModeFixed, DCInterval: 200 * time.Millisecond, DCPolicy: dcnet.PolicyNone,
		Node: func(id proto.NodeID) node.Config {
			return node.Config{
				Mine:           miners[id],
				DifficultyBits: 8,
				MineInterval:   400 * time.Millisecond,
				MineBudget:     20_000,
			}
		},
	}.Factory()
	if err != nil {
		log.Fatal(err)
	}
	nodes := make([]*node.Node, n)
	net.SetHandlers(func(id proto.NodeID) proto.Handler {
		h := handlers(id)
		nodes[id] = h.(*node.Node)
		return h
	})
	net.AddTap(feeder{nodes})
	net.Start()

	// Wallets: group members submit transactions with random fees.
	fmt.Printf("submitting %d anonymous transactions from the 5-member group…\n", txCount)
	for i := 0; i < txCount; i++ {
		src := group[i%len(group)]
		fee := uint64(5 + rng.IntN(95))
		tx := &chain.Tx{Nonce: uint64(i + 1), Fee: fee, Payload: []byte(fmt.Sprintf("payment-%d", i))}
		at := time.Duration(i) * 300 * time.Millisecond
		net.Engine().Schedule(at, func() {
			if _, err := net.Originate(src, tx.Encode()); err != nil {
				log.Fatal(err)
			}
		})
	}

	net.RunUntil(90 * time.Second)

	// Report: chain state at node 0 and fee distribution.
	head := nodes[0].Chain()
	fmt.Printf("\nchain height at node 0: %d\n", head.Height())
	feeByMiner := map[proto.NodeID]uint64{}
	txsIncluded := 0
	for _, b := range head.MainChain() {
		feeByMiner[b.Miner] += b.TotalFees()
		txsIncluded += len(b.Txs)
	}
	fmt.Printf("transactions included: %d/%d\n", txsIncluded, txCount)
	for m, f := range feeByMiner {
		fmt.Printf("  miner %2d earned %4d in fees\n", m, f)
	}
	share := chain.FeeShare(head.MainChain())
	hashpower := map[proto.NodeID]float64{10: 0.5, 40: 0.5}
	fmt.Printf("fee-share total variation vs hashpower: %.3f (0 = perfectly fair)\n",
		chain.TotalVariation(share, hashpower))
}

// feeder wires sim deliveries into mempools (the TCP runtime does this
// through transport.Config.OnDeliver).
type feeder struct{ nodes []*node.Node }

func (f feeder) OnSend(time.Duration, proto.NodeID, proto.NodeID, proto.Message)    {}
func (f feeder) OnReceive(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}
func (f feeder) OnDeliverLocal(_ time.Duration, n proto.NodeID, _ proto.MsgID, payload []byte) {
	f.nodes[n].OnDeliver(payload)
}
