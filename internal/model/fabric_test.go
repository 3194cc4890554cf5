package model

import (
	"math"
	"testing"
)

func TestFabricKinds(t *testing.T) {
	if FabricIdeal.String() != "ideal" || FabricSharedBus.String() != "shared-bus" ||
		FabricCrossbar.String() != "crossbar" || FabricMesh.String() != "mesh" {
		t.Error("kind strings wrong")
	}
	if FabricKind(9).String() == "" {
		t.Error("unknown kind must render")
	}
}

func TestEffectiveKindLegacyShared(t *testing.T) {
	f := Fabric{Shared: true}
	if f.EffectiveKind() != FabricSharedBus {
		t.Error("legacy Shared flag not honored")
	}
	g := Fabric{Kind: FabricMesh, Shared: true}
	if g.EffectiveKind() != FabricMesh {
		t.Error("explicit kind must win over legacy flag")
	}
	if !(Fabric{Kind: FabricCrossbar}).Arbitrated() {
		t.Error("crossbar must be arbitrated")
	}
	if (Fabric{Kind: FabricMesh}).Arbitrated() {
		t.Error("mesh is modeled contention-free")
	}
}

func TestMeshHops(t *testing.T) {
	// 2x2 grid (4 procs): ids 0,1 / 2,3.
	f := Fabric{Kind: FabricMesh, MeshWidth: 2}
	cases := []struct {
		a, b ProcID
		want int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 1}, {0, 3, 2}, {1, 2, 2}, {3, 0, 2},
	}
	for _, c := range cases {
		if got := f.MeshHops(c.a, c.b, 4); got != c.want {
			t.Errorf("hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Auto width: 5 procs -> 3x2 grid.
	auto := Fabric{Kind: FabricMesh}
	if got := auto.MeshHops(0, 4, 5); got != 2 { // 0=(0,0), 4=(1,1): 2 hops
		t.Errorf("auto hops = %d, want 2", got)
	}
}

func TestTransferTimeBetweenMesh(t *testing.T) {
	f := Fabric{Kind: FabricMesh, MeshWidth: 2, Bandwidth: 8, BaseLatency: 10}
	// Adjacent (1 hop): 10 + 64/8 = 18.
	if got := f.TransferTimeBetween(0, 1, 64, 4); got != 18 {
		t.Errorf("1-hop = %v, want 18", got)
	}
	// Diagonal (2 hops): 18 + one extra hop latency = 28.
	if got := f.TransferTimeBetween(0, 3, 64, 4); got != 28 {
		t.Errorf("2-hop = %v, want 28", got)
	}
	// Non-mesh fabrics ignore positions.
	bus := Fabric{Kind: FabricSharedBus, Bandwidth: 8, BaseLatency: 10}
	if got := bus.TransferTimeBetween(0, 3, 64, 4); got != 18 {
		t.Errorf("bus = %v, want 18", got)
	}
}

// TestTransferTimeSaturates: a transfer too slow to represent must come
// out as Infinity, never as a wrapped-around negative (free) delay.
func TestTransferTimeSaturates(t *testing.T) {
	const big = Time(math.MaxInt64 - 10)
	cases := []struct {
		name string
		f    Fabric
		size int64
		want Time
	}{
		{"ordinary", Fabric{Bandwidth: 8, BaseLatency: 10}, 64, 18},
		{"infinite bandwidth", Fabric{BaseLatency: 10}, 64, 10},
		{"empty message", Fabric{Bandwidth: 1e-300, BaseLatency: 10}, 0, 10},
		{"tiny bandwidth", Fabric{Bandwidth: 1e-300, BaseLatency: 50}, 1000, Infinity},
		{"huge base latency", Fabric{Bandwidth: 1, BaseLatency: big}, 1000, Infinity},
		{"huge base latency, no payload", Fabric{Bandwidth: 1, BaseLatency: big}, 0, Infinity},
		{"huge base latency, infinite bandwidth", Fabric{BaseLatency: big}, 1000, Infinity},
		{"sum just below infinity", Fabric{Bandwidth: 1, BaseLatency: Infinity - 1001}, 1000, Infinity - 1},
		{"sum reaching infinity", Fabric{Bandwidth: 1, BaseLatency: Infinity - 1000}, 1000, Infinity},
	}
	for _, c := range cases {
		if got := c.f.TransferTime(c.size); got != c.want {
			t.Errorf("%s: TransferTime = %d, want %d", c.name, got, c.want)
		}
		if got := c.f.TransferTimeBetween(0, 1, c.size, 4); got != c.want {
			t.Errorf("%s: TransferTimeBetween = %d, want %d", c.name, got, c.want)
		}
	}
	// The mesh hop term saturates too: 2 hops add one extra base latency.
	mesh := Fabric{Kind: FabricMesh, MeshWidth: 2, Bandwidth: 1, BaseLatency: Infinity / 2}
	if got := mesh.TransferTimeBetween(0, 3, 1000, 4); got != Infinity {
		t.Errorf("mesh near infinity = %d, want Infinity", got)
	}
	mesh.BaseLatency = big
	if got := mesh.TransferTimeBetween(0, 3, 1000, 4); got != Infinity {
		t.Errorf("mesh huge latency = %d, want Infinity", got)
	}
}
