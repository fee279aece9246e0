//! The accept thread both servers run: a blocking `accept` that a
//! self-connect from [`Acceptor::shutdown`] wakes, so an idle listener costs
//! nothing and shutdown does not wait out a poll interval.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Connections accepted until shutdown. The listener closes when the iterator
/// ends, before the accept thread's own cleanup runs.
pub(crate) struct Incoming {
    listener: Option<TcpListener>,
    stop: Arc<AtomicBool>,
}

impl Iterator for Incoming {
    type Item = TcpStream;

    fn next(&mut self) -> Option<TcpStream> {
        match self.listener.as_ref()?.accept() {
            Ok((stream, _)) if !self.stop.load(Ordering::SeqCst) => Some(stream),
            // Shutdown's wake-up connection, or a listener error.
            _ => {
                self.listener = None;
                None
            }
        }
    }
}

/// A listener and the thread accepting on it.
pub(crate) struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Run `serve` on a new thread over the connections `listener` accepts.
    pub(crate) fn spawn(
        listener: TcpListener,
        serve: impl FnOnce(Incoming) + Send + 'static,
    ) -> std::io::Result<Acceptor> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let incoming = Incoming {
            listener: Some(listener),
            stop: Arc::clone(&stop),
        };
        Ok(Acceptor {
            addr,
            stop,
            thread: Some(std::thread::spawn(move || serve(incoming))),
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and wait for `serve` to return. The listener is closed
    /// by then: a later connect to [`addr`](Self::addr) is refused.
    pub(crate) fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocked accept; refused means the thread already left.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.shutdown();
    }
}
