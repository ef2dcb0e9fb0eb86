//! Property-based tests of the wire codec: arbitrary valid packets
//! roundtrip byte-exactly, and the decoder never panics on arbitrary
//! input (it is fed by a network).

use bytes::{BufMut, Bytes, BytesMut};
use fib_igp::lsa::{Lsa, LsaBody, LsaHeader, LsaKey, LsaKind, LsaLink};
use fib_igp::types::{FwAddr, Metric, Prefix, RouterId, SeqNum};
use fib_igp::wire::{
    decode, encode, encode_ls_update, encoded_len, fletcher16, Dbd, Hello, LsAck, LsRequest,
    LsUpdate, Packet, HEADER_LEN, VERSION,
};
use proptest::prelude::*;

/// The encoder as it was before it wrote into one buffer: the body goes
/// into a buffer of its own (and each LSA body into another), whose
/// length is then known when the header is written in front of a copy.
/// Kept as the reference the single-buffer, back-patching encoder must
/// match byte for byte.
mod two_buffer {
    use super::*;

    fn put_prefix(buf: &mut BytesMut, p: Prefix) {
        buf.put_u32(p.addr());
        buf.put_u8(p.len());
    }

    fn put_lsa_header(buf: &mut BytesMut, h: &LsaHeader) {
        buf.put_u32(h.key.origin.0);
        buf.put_u8(h.key.kind as u8);
        buf.put_u32(h.key.id);
        buf.put_i32(h.seq.0);
        buf.put_u16(h.age);
    }

    fn encode_lsa(lsa: &Lsa, buf: &mut BytesMut) {
        put_lsa_header(buf, &lsa.header());
        let mut body = BytesMut::new();
        match &lsa.body {
            LsaBody::Router { links } => {
                body.put_u16(links.len() as u16);
                for l in links {
                    body.put_u32(l.to.0);
                    body.put_u32(l.metric.0);
                }
            }
            LsaBody::Prefix { prefix, metric } => {
                put_prefix(&mut body, *prefix);
                body.put_u32(metric.0);
            }
            LsaBody::Fake {
                attach,
                attach_metric,
                prefix,
                prefix_metric,
                fw,
            } => {
                body.put_u32(attach.0);
                body.put_u32(attach_metric.0);
                put_prefix(&mut body, *prefix);
                body.put_u32(prefix_metric.0);
                body.put_u32(fw.router.0);
                body.put_u16(fw.addr);
            }
        }
        buf.put_u16(body.len() as u16);
        buf.extend_from_slice(&body);
    }

    pub fn encode(packet: &Packet, sender: RouterId) -> Bytes {
        let mut body = BytesMut::new();
        match packet {
            Packet::Hello(h) => {
                body.put_u16(h.hello_interval);
                body.put_u16(h.dead_interval);
                body.put_u16(h.seen.len() as u16);
                for r in &h.seen {
                    body.put_u32(r.0);
                }
            }
            Packet::Dbd(d) => {
                let mut flags = 0u8;
                if d.init {
                    flags |= 0x1;
                }
                if d.more {
                    flags |= 0x2;
                }
                if d.master {
                    flags |= 0x4;
                }
                body.put_u8(flags);
                body.put_u32(d.dd_seq);
                body.put_u16(d.headers.len() as u16);
                for h in &d.headers {
                    put_lsa_header(&mut body, h);
                }
            }
            Packet::LsRequest(r) => {
                body.put_u16(r.keys.len() as u16);
                for k in &r.keys {
                    body.put_u32(k.origin.0);
                    body.put_u8(k.kind as u8);
                    body.put_u32(k.id);
                }
            }
            Packet::LsUpdate(u) => {
                body.put_u16(u.lsas.len() as u16);
                for l in &u.lsas {
                    encode_lsa(l, &mut body);
                }
            }
            Packet::LsAck(a) => {
                body.put_u16(a.headers.len() as u16);
                for h in &a.headers {
                    put_lsa_header(&mut body, h);
                }
            }
        }
        let total = HEADER_LEN + body.len();
        let mut out = BytesMut::with_capacity(total);
        out.put_u8(VERSION);
        out.put_u8(packet.type_byte());
        out.put_u16(total as u16);
        out.put_u32(sender.0);
        out.put_u16(0); // checksum placeholder
        out.put_u16(0); // reserved
        out.extend_from_slice(&body);
        let ck = fletcher16(&out);
        out[8] = (ck >> 8) as u8;
        out[9] = (ck & 0xff) as u8;
        out.freeze()
    }
}

fn arb_router() -> impl Strategy<Value = RouterId> {
    any::<u32>().prop_map(RouterId)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(a, l))
}

fn arb_kind() -> impl Strategy<Value = LsaKind> {
    prop_oneof![
        Just(LsaKind::Router),
        Just(LsaKind::Prefix),
        Just(LsaKind::Fake),
    ]
}

fn arb_header() -> impl Strategy<Value = LsaHeader> {
    (
        arb_router(),
        arb_kind(),
        any::<u32>(),
        any::<i32>(),
        any::<u16>(),
    )
        .prop_map(|(origin, kind, id, seq, age)| LsaHeader {
            key: LsaKey { origin, kind, id },
            seq: SeqNum(seq),
            age,
        })
}

fn arb_lsa() -> impl Strategy<Value = Lsa> {
    let router = (
        arb_router(),
        any::<i32>(),
        any::<u16>(),
        proptest::collection::vec((arb_router(), any::<u32>()), 0..12),
    )
        .prop_map(|(origin, seq, age, links)| {
            let mut l = Lsa::router(
                origin,
                SeqNum(seq),
                links
                    .into_iter()
                    .map(|(to, m)| LsaLink {
                        to,
                        metric: Metric(m),
                    })
                    .collect(),
            );
            l.age = age;
            l
        });
    let prefix = (
        arb_router(),
        any::<u32>(),
        any::<i32>(),
        any::<u16>(),
        arb_prefix(),
        any::<u32>(),
    )
        .prop_map(|(origin, id, seq, age, p, m)| {
            let mut l = Lsa::prefix(origin, id, SeqNum(seq), p, Metric(m));
            l.age = age;
            l
        });
    let fake = (
        any::<u32>(),
        any::<i32>(),
        any::<u16>(),
        arb_router(),
        any::<u32>(),
        arb_prefix(),
        any::<u32>(),
        arb_router(),
        any::<u16>(),
    )
        .prop_map(|(fid, seq, age, attach, am, p, pm, fwr, fwa)| {
            let mut l = Lsa::fake(
                RouterId::fake(fid % 0x7fff_ffff),
                SeqNum(seq),
                attach,
                Metric(am),
                p,
                Metric(pm),
                FwAddr {
                    router: fwr,
                    addr: fwa,
                },
            );
            l.age = age;
            l
        });
    prop_oneof![router, prefix, fake]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    let hello = (
        any::<u16>(),
        any::<u16>(),
        proptest::collection::vec(arb_router(), 0..8),
    )
        .prop_map(|(h, d, seen)| {
            Packet::Hello(Hello {
                hello_interval: h,
                dead_interval: d,
                seen,
            })
        });
    let dbd = (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<u32>(),
        proptest::collection::vec(arb_header(), 0..8),
    )
        .prop_map(|(init, more, master, dd_seq, headers)| {
            Packet::Dbd(Dbd {
                init,
                more,
                master,
                dd_seq,
                headers,
            })
        });
    let req = proptest::collection::vec((arb_router(), arb_kind(), any::<u32>()), 0..8).prop_map(
        |keys| {
            Packet::LsRequest(LsRequest {
                keys: keys
                    .into_iter()
                    .map(|(origin, kind, id)| LsaKey { origin, kind, id })
                    .collect(),
            })
        },
    );
    let upd = proptest::collection::vec(arb_lsa(), 0..6)
        .prop_map(|lsas| Packet::LsUpdate(LsUpdate { lsas }));
    let ack = proptest::collection::vec(arb_header(), 0..8)
        .prop_map(|headers| Packet::LsAck(LsAck { headers }));
    prop_oneof![hello, dbd, req, upd, ack]
}

proptest! {
    /// The single-buffer encoder writes exactly the bytes the
    /// two-buffer one did, for every packet type; and the borrowed
    /// LS Update form writes exactly what the owned packet form does.
    #[test]
    fn single_buffer_encoding_is_byte_identical(pkt in arb_packet(), sender in arb_router()) {
        let bytes = encode(&pkt, sender);
        prop_assert_eq!(&bytes[..], &two_buffer::encode(&pkt, sender)[..]);
        if let Packet::LsUpdate(u) = &pkt {
            prop_assert_eq!(&encode_ls_update(u.lsas.iter(), sender)[..], &bytes[..]);
        }
    }

    /// The length computed without encoding is the encoding's, for
    /// every packet type and all three LSA kinds.
    #[test]
    fn encoded_len_is_the_encoding_length(pkt in arb_packet(), sender in arb_router()) {
        prop_assert_eq!(encoded_len(&pkt), encode(&pkt, sender).len());
    }

    /// Any packet we can construct roundtrips exactly.
    #[test]
    fn roundtrip(pkt in arb_packet(), sender in arb_router()) {
        let bytes = encode(&pkt, sender);
        let (got_sender, got_pkt) = decode(bytes).expect("own encoding decodes");
        prop_assert_eq!(got_sender, sender);
        prop_assert_eq!(got_pkt, pkt);
    }

    /// The decoder never panics on arbitrary bytes — it either decodes
    /// or returns an error.
    #[test]
    fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(Bytes::from(data));
    }

    /// Single-byte truncation of a valid packet is always rejected.
    #[test]
    fn truncation_rejected(pkt in arb_packet()) {
        let bytes = encode(&pkt, RouterId(1));
        if bytes.len() > 1 {
            let cut = bytes.slice(0..bytes.len() - 1);
            prop_assert!(decode(cut).is_err());
        }
    }
}
