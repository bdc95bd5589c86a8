//! The 21 desktop applications of Figure 3.
//!
//! Each is an interactive-loop process whose memory footprint and
//! compressibility mix are calibrated so that the *simulated* gzip'd image
//! sizes and checkpoint times land where the figure puts them (raw size ≈
//! paper checkpoint time × the desktop gzip rate). The multi-process
//! entries are structural, not just profiles: TightVNC+TWM is a vncserver
//! holding a pty master with TWM and an xterm client on the slave plus a
//! local socket; vim/cscope is a vim driving cscope through a pipe pair —
//! so checkpointing them exercises ptys, sockets, and pipes exactly as
//! §5.1 describes.

use oskit::mem::FillProfile;
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{Errno, Fd, Kernel};
use simkit::{Nanos, Snap};

/// Catalogue entry for one Figure-3 application.
#[derive(Debug, Clone, Copy)]
pub struct DesktopSpec {
    /// Display name (as on the figure's x axis).
    pub name: &'static str,
    /// Resident set in MiB (drives checkpoint time).
    pub raw_mb: u64,
    /// Page mix: percent zero pages.
    pub zero_pct: u8,
    /// Percent text-like pages.
    pub text_pct: u8,
    /// Percent code-like pages (dynamic libraries).
    pub code_pct: u8,
    /// Structural shape.
    pub shape: Shape,
}

/// Process structure of an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One interactive process.
    Single,
    /// vncserver + twm + xterm: three processes, a pty and a local socket.
    Vnc,
    /// vim + cscope joined by two pipes.
    VimCscope,
}

/// The Figure-3 catalogue. Footprints chosen so simulated gzip time ≈ the
/// figure's checkpoint bar (desktop gzip ≈ 27 MB/s), with compressibility
/// mixes typical of each runtime (interpreters are text/code-heavy; MATLAB
/// and Octave carry numeric arrays).
pub const CATALOGUE: &[DesktopSpec] = &[
    DesktopSpec {
        name: "bc",
        raw_mb: 2,
        zero_pct: 10,
        text_pct: 40,
        code_pct: 40,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "emacs",
        raw_mb: 32,
        zero_pct: 10,
        text_pct: 45,
        code_pct: 35,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "ghci",
        raw_mb: 43,
        zero_pct: 15,
        text_pct: 35,
        code_pct: 40,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "ghostscript",
        raw_mb: 11,
        zero_pct: 10,
        text_pct: 30,
        code_pct: 45,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "gnuplot",
        raw_mb: 8,
        zero_pct: 10,
        text_pct: 30,
        code_pct: 45,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "gst",
        raw_mb: 13,
        zero_pct: 10,
        text_pct: 40,
        code_pct: 40,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "lynx",
        raw_mb: 11,
        zero_pct: 10,
        text_pct: 50,
        code_pct: 30,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "macaulay2",
        raw_mb: 27,
        zero_pct: 10,
        text_pct: 35,
        code_pct: 40,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "matlab",
        raw_mb: 89,
        zero_pct: 10,
        text_pct: 25,
        code_pct: 35,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "mzscheme",
        raw_mb: 16,
        zero_pct: 10,
        text_pct: 40,
        code_pct: 40,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "ocaml",
        raw_mb: 7,
        zero_pct: 10,
        text_pct: 40,
        code_pct: 40,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "octave",
        raw_mb: 24,
        zero_pct: 10,
        text_pct: 30,
        code_pct: 40,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "perl",
        raw_mb: 19,
        zero_pct: 10,
        text_pct: 45,
        code_pct: 35,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "php",
        raw_mb: 16,
        zero_pct: 10,
        text_pct: 45,
        code_pct: 35,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "python",
        raw_mb: 21,
        zero_pct: 10,
        text_pct: 45,
        code_pct: 35,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "ruby",
        raw_mb: 19,
        zero_pct: 10,
        text_pct: 45,
        code_pct: 35,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "slsh",
        raw_mb: 8,
        zero_pct: 10,
        text_pct: 40,
        code_pct: 40,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "sqlite",
        raw_mb: 8,
        zero_pct: 10,
        text_pct: 35,
        code_pct: 40,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "tclsh",
        raw_mb: 4,
        zero_pct: 10,
        text_pct: 40,
        code_pct: 40,
        shape: Shape::Single,
    },
    DesktopSpec {
        name: "tightvnc+twm",
        raw_mb: 38,
        zero_pct: 15,
        text_pct: 30,
        code_pct: 40,
        shape: Shape::Vnc,
    },
    DesktopSpec {
        name: "vim/cscope",
        raw_mb: 13,
        zero_pct: 10,
        text_pct: 45,
        code_pct: 35,
        shape: Shape::VimCscope,
    },
];

/// Find a catalogue entry by name.
pub fn spec_by_name(name: &str) -> Option<&'static DesktopSpec> {
    CATALOGUE.iter().find(|s| s.name == name)
}

/// A single-process interactive application: maps its footprint, then
/// loops forever doing light work on a small live heap, like an
/// interpreter sitting at a prompt.
pub struct Interactive {
    /// Seed for the footprint fill.
    pub seed: u64,
    /// Footprint in MiB.
    pub raw_mb: u64,
    /// Mix percentages (zero, text, code).
    pub mix: (u8, u8, u8),
    /// Program counter.
    pub pc: u8,
    /// Live heap region.
    pub heap: u64,
    /// Iterations completed.
    pub ticks: u64,
}
simkit::impl_snap!(struct Interactive { seed, raw_mb, mix, pc, heap, ticks });

impl Interactive {
    /// Build from a catalogue entry.
    pub fn from_spec(s: &DesktopSpec, seed: u64) -> Self {
        Interactive {
            seed,
            raw_mb: s.raw_mb,
            mix: (s.zero_pct, s.text_pct, s.code_pct),
            pc: 0,
            heap: 0,
            ticks: 0,
        }
    }
}

impl Program for Interactive {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.pc {
            0 => {
                // A small live heap plus the calibrated footprint (split
                // into a "libraries" part and a data part for realism in
                // /proc maps).
                self.heap = k.mmap_anon("heap", 64 * 1024) as u64;
                let lib_mb = (self.raw_mb / 3).max(1);
                let data_mb = self.raw_mb - lib_mb;
                k.map_library("libs.so", lib_mb << 20, self.seed ^ 0x11b);
                if data_mb > 0 {
                    k.mmap_synthetic(
                        "data",
                        data_mb << 20,
                        self.seed,
                        FillProfile::Mixed {
                            zero_pct: self.mix.0,
                            text_pct: self.mix.1,
                            code_pct: self.mix.2,
                        },
                    );
                }
                self.pc = 1;
                Step::Yield
            }
            1 => {
                // Interactive idle loop: touch the live heap occasionally.
                self.ticks += 1;
                k.mem_write(
                    self.heap as usize,
                    (self.ticks % 1024) * 8,
                    &self.ticks.to_le_bytes(),
                );
                Step::Sleep(Nanos::from_millis(10))
            }
            _ => unreachable!(),
        }
    }
    fn tag(&self) -> &'static str {
        "desktop-interactive"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// vncserver: owns the display pty and a listening socket that TWM and the
/// xterm connect to; forwards "framebuffer updates" to whoever asks.
pub struct VncServer {
    /// Footprint spec.
    pub raw_mb: u64,
    /// Fill seed.
    pub seed: u64,
    /// Program counter.
    pub pc: u8,
    /// Pty master (the "display").
    pub master: Fd,
    /// Listening socket for X clients.
    pub lfd: Fd,
    /// Connected clients.
    pub clients: Vec<Fd>,
    /// Updates served.
    pub updates: u64,
}
simkit::impl_snap!(struct VncServer { raw_mb, seed, pc, master, lfd, clients, updates });

impl Program for VncServer {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    k.mmap_synthetic(
                        "framebuffer",
                        (self.raw_mb / 2) << 20,
                        self.seed,
                        FillProfile::Mixed {
                            zero_pct: 25,
                            text_pct: 10,
                            code_pct: 30,
                        },
                    );
                    k.map_library("libvnc.so", (self.raw_mb / 4) << 20, self.seed ^ 7);
                    let (m, s) = k.openpty();
                    self.master = m;
                    k.close(s).expect("server keeps only the master");
                    let (lfd, _) = k.listen_on(6000).expect("X display port");
                    self.lfd = lfd;
                    self.pc = 1;
                }
                1 => {
                    // Accept window-manager / xterm connections.
                    loop {
                        match k.accept(self.lfd) {
                            Ok(fd) => self.clients.push(fd),
                            Err(Errno::WouldBlock) => break,
                            Err(e) => panic!("vnc accept: {e:?}"),
                        }
                    }
                    // Serve one request per client per pass.
                    let mut progressed = false;
                    for i in 0..self.clients.len() {
                        match k.read(self.clients[i], 64) {
                            Ok(b) if b.is_empty() => {}
                            Ok(_req) => {
                                self.updates += 1;
                                let reply = self.updates.to_le_bytes();
                                let _ = k.write(self.clients[i], &reply);
                                progressed = true;
                            }
                            Err(Errno::WouldBlock) => {}
                            Err(e) => panic!("vnc read: {e:?}"),
                        }
                    }
                    if !progressed {
                        return Step::Block;
                    }
                }
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "vncserver"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// An X client (TWM or xterm): connects to the vnc display socket and
/// requests updates in a loop.
pub struct XClient {
    /// Footprint MiB.
    pub raw_mb: u64,
    /// Fill seed.
    pub seed: u64,
    /// Program counter.
    pub pc: u8,
    /// Socket to the server.
    pub fd: Fd,
    /// Requests issued.
    pub reqs: u64,
}
simkit::impl_snap!(struct XClient { raw_mb, seed, pc, fd, reqs });

impl Program for XClient {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    k.mmap_synthetic(
                        "client-data",
                        self.raw_mb << 20,
                        self.seed,
                        FillProfile::Mixed {
                            zero_pct: 15,
                            text_pct: 30,
                            code_pct: 40,
                        },
                    );
                    self.pc = 1;
                }
                1 => match k.connect("node00", 6000) {
                    Ok(fd) => {
                        self.fd = fd;
                        self.pc = 2;
                    }
                    Err(Errno::ConnRefused) => return Step::Sleep(Nanos::from_millis(2)),
                    Err(e) => panic!("xclient connect: {e:?}"),
                },
                2 => {
                    let _ = k.write(self.fd, b"req");
                    self.pc = 3;
                }
                3 => match k.read(self.fd, 16) {
                    Ok(b) if b.is_empty() => return Step::Exit(0),
                    Ok(_) => {
                        self.reqs += 1;
                        self.pc = 2;
                        return Step::Sleep(Nanos::from_millis(15));
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("xclient read: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "xclient"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// vim driving cscope through a pipe pair (query out, results back).
pub struct VimCscope {
    /// Footprint MiB of the pair (vim gets 2/3).
    pub raw_mb: u64,
    /// Fill seed.
    pub seed: u64,
    /// Program counter.
    pub pc: u8,
    /// Query pipe write end (vim side) / read end (cscope side).
    pub qfd: Fd,
    /// Result pipe read end (vim side) / write end (cscope side).
    pub rfd: Fd,
    /// Queries completed.
    pub queries: u64,
}
simkit::impl_snap!(struct VimCscope { raw_mb, seed, pc, qfd, rfd, queries });

impl Program for VimCscope {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    let (q_r, q_w) = k.pipe();
                    let (r_r, r_w) = k.pipe();
                    // Fork: child becomes cscope with (q_r, r_w).
                    self.qfd = q_r;
                    self.rfd = r_w;
                    self.pc = 1;
                    k.fork_snapshot(self).expect("fork cscope");
                    // Parent keeps (q_w, r_r).
                    self.qfd = q_w;
                    self.rfd = r_r;
                }
                1 => match k.fork_ret() {
                    Some(0) => {
                        k.clear_fork_ret();
                        k.mmap_synthetic(
                            "cscope-index",
                            (self.raw_mb / 3) << 20,
                            self.seed ^ 0xc5,
                            FillProfile::Mixed {
                                zero_pct: 5,
                                text_pct: 60,
                                code_pct: 25,
                            },
                        );
                        self.pc = 10;
                    }
                    _ => {
                        k.clear_fork_ret();
                        k.mmap_synthetic(
                            "vim-buffers",
                            (self.raw_mb * 2 / 3) << 20,
                            self.seed,
                            FillProfile::Mixed {
                                zero_pct: 10,
                                text_pct: 55,
                                code_pct: 25,
                            },
                        );
                        self.pc = 20;
                    }
                },
                // cscope: answer queries
                10 => match k.read(self.qfd, 64) {
                    Ok(b) if b.is_empty() => return Step::Exit(0),
                    Ok(q) => {
                        let mut reply = b"hit:".to_vec();
                        reply.extend_from_slice(&q);
                        k.write(self.rfd, &reply).expect("cscope reply");
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("cscope read: {e:?}"),
                },
                // vim: issue queries forever (interactive session)
                20 => {
                    let q = format!("sym{}", self.queries);
                    k.write(self.qfd, q.as_bytes()).expect("query");
                    self.pc = 21;
                }
                21 => match k.read(self.rfd, 128) {
                    Ok(b) if b.is_empty() => panic!("cscope died"),
                    Ok(_) => {
                        self.queries += 1;
                        self.pc = 20;
                        return Step::Sleep(Nanos::from_millis(20));
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("vim read: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "vim-cscope"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Launch a catalogue entry (1–3 processes) on `node`, optionally under
/// DMTCP. Returns the pids created directly (children via fork are traced
/// automatically).
pub fn launch_desktop(
    w: &mut World,
    sim: &mut OsSim,
    session: Option<&dmtcp::Session>,
    node: NodeId,
    spec: &DesktopSpec,
    seed: u64,
) -> Vec<Pid> {
    let spawn = |w: &mut World, sim: &mut OsSim, cmd: &str, prog: Box<dyn Program>| -> Pid {
        match session {
            Some(s) => s.launch(w, sim, node, cmd, prog),
            None => w.spawn(sim, node, cmd, prog, Pid(1), Default::default()),
        }
    };
    match spec.shape {
        Shape::Single => {
            vec![spawn(
                w,
                sim,
                spec.name,
                Box::new(Interactive::from_spec(spec, seed)),
            )]
        }
        Shape::Vnc => {
            let server = spawn(
                w,
                sim,
                "vncserver",
                Box::new(VncServer {
                    raw_mb: spec.raw_mb * 2 / 3,
                    seed,
                    pc: 0,
                    master: -1,
                    lfd: -1,
                    clients: Vec::new(),
                    updates: 0,
                }),
            );
            let twm = spawn(
                w,
                sim,
                "twm",
                Box::new(XClient {
                    raw_mb: spec.raw_mb / 6,
                    seed: seed ^ 1,
                    pc: 0,
                    fd: -1,
                    reqs: 0,
                }),
            );
            let xterm = spawn(
                w,
                sim,
                "xterm",
                Box::new(XClient {
                    raw_mb: spec.raw_mb / 6,
                    seed: seed ^ 2,
                    pc: 0,
                    fd: -1,
                    reqs: 0,
                }),
            );
            vec![server, twm, xterm]
        }
        Shape::VimCscope => {
            vec![spawn(
                w,
                sim,
                "vim",
                Box::new(VimCscope {
                    raw_mb: spec.raw_mb,
                    seed,
                    pc: 0,
                    qfd: -1,
                    rfd: -1,
                    queries: 0,
                }),
            )]
        }
    }
}

/// Register the desktop program loaders.
pub fn register(reg: &mut Registry) {
    reg.register_snap::<Interactive>("desktop-interactive");
    reg.register_snap::<VncServer>("vncserver");
    reg.register_snap::<XClient>("xclient");
    reg.register_snap::<VimCscope>("vim-cscope");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_the_figure_roster() {
        assert_eq!(CATALOGUE.len(), 21, "Figure 3 shows 21 applications");
        assert!(spec_by_name("matlab").is_some());
        assert!(spec_by_name("tightvnc+twm").map(|s| s.shape) == Some(Shape::Vnc));
        assert!(spec_by_name("vim/cscope").map(|s| s.shape) == Some(Shape::VimCscope));
        // Mixes are valid percentages.
        for s in CATALOGUE {
            assert!(
                s.zero_pct as u16 + s.text_pct as u16 + s.code_pct as u16 <= 100,
                "{}",
                s.name
            );
            assert!(s.raw_mb >= 1);
        }
    }

    #[test]
    fn matlab_is_the_biggest_single_process_entry() {
        // Figure 3: MATLAB has the tallest checkpoint bar.
        let m = spec_by_name("matlab").expect("matlab");
        for s in CATALOGUE {
            if s.shape == Shape::Single {
                assert!(s.raw_mb <= m.raw_mb, "{} exceeds matlab", s.name);
            }
        }
    }
}
