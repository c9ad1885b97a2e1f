package ipbm

import (
	"testing"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
	"ipsa/internal/testbed"
)

// TestConstDeclarations: a function using named constants loads and runs.
func TestConstDeclarations(t *testing.T) {
	sw, w := newBaseSwitch(t)
	snippet := `
const bit<8> PROTO_TCP = 6;
const bit<8> MARK_DSCP = 46;

table tcp_mark {
    key = {
        ipv4.dst_addr: exact;
    }
    actions = { mark_tcp; }
    size = 64;
}

action mark_tcp() {
    if (ipv4.protocol == PROTO_TCP) {
        ipv4.diffserv = MARK_DSCP << 2;
    }
}

stage tcp_mark_stage {
    parser { ipv4 };
    matcher {
        if (ipv4.isValid()) tcp_mark.apply();
        else;
    };
    executor {
        1: mark_tcp;
        default: NoAction;
    };
}

user_funcs { func marker { tcp_mark_stage } }
`
	script := `
load marker.rp4 --func_name marker
add_link port_map tcp_mark_stage
add_link tcp_mark_stage bd_vrf
del_link port_map bd_vrf
`
	rep, err := w.ApplyScript(script, func(string) (string, error) { return snippet, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.ApplyConfig(rep.Config); err != nil {
		t.Fatal(err)
	}
	insert(t, sw, ctrlplane.EntryReq{
		Table: "tcp_mark", Keys: []ctrlplane.FieldValue{{Value: 0x0A000002}}, Tag: 1,
	})
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, testbed.RouterMAC, 64), testbed.InPort)
	if err != nil || p.Drop {
		t.Fatalf("err=%v drop=%v", err, p.Drop)
	}
	var ip pkt.IPv4
	_ = ip.Decode(p.Data[pkt.EthernetLen:])
	if ip.DSCP != 46 {
		t.Errorf("dscp = %d, want 46 (via consts)", ip.DSCP)
	}
	// The rendered updated design keeps the const declarations.
	if got := w.RenderProgram(); !contains(got, "const bit<8> PROTO_TCP = 6;") {
		t.Error("const lost in rendered design")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
