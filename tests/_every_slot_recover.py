"""Reference recovery: read the header of every one of the
``cores * log_slots`` log slots, written or not, in core-then-slot order.

``txn.recover`` reads only the slots whose header line the durable image
holds.  Tests run both over the same crash images and expect the same
outcomes, the same undone transactions and the same recovered image.
"""

from secpmsim.config import LINE
from secpmsim.controller import Controller
from secpmsim.nvm import ZERO_LINE
from secpmsim.txn import end_tag_matches, parse_header


def recover_every_slot(snapshot, cfg):
    ctrl = Controller.from_snapshot(cfg, snapshot)
    undone = []
    for core in range(cfg.cores):
        for slot in range(cfg.log_slots):
            base = cfg.log_slot_base(core, slot)
            parsed = parse_header(ctrl.handle_read(base))
            if parsed is None:
                continue
            txn_id, regions = parsed
            total = sum(n for _, n in regions)
            if total > cfg.slot_lines - 2:
                continue
            end_addr = base + (1 + total) * LINE
            if not end_tag_matches(ctrl.handle_read(end_addr), txn_id):
                continue  # incomplete log: abandon
            idx = 1
            for rbase, nlines in regions:
                for j in range(nlines):
                    old = ctrl.handle_read(base + idx * LINE)
                    idx += 1
                    ctrl.handle_flush(rbase + j * LINE, old)
            ctrl.fence()
            ctrl.handle_flush(end_addr, ZERO_LINE)
            ctrl.fence()
            undone.append(txn_id)
    ctrl.drain_all()
    return ctrl, undone
