package live

// MailboxHighWatermark returns the deepest any node's mailbox has been.
func (nw *Network) MailboxHighWatermark() int64 { return nw.mailboxHW.Load() }

// MailboxDrops returns deliveries dropped because a mailbox was full.
func (nw *Network) MailboxDrops() int64 { return nw.mailboxDrops.Load() }
