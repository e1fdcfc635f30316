"""Independent brute-force oracles backing the DERIVED expectations.

Nothing here shares code with the library paths it checks: IoU is
re-derived by counting rasterization cells and by the scalar polygon clip
(``rect_iou``, one pair at a time in Python floats, which the library's
array clip must equal bit for bit), assignment by permutation
enumeration, similarity one pair of vectors at a time, attention and
convolution by literal loops. One helper at the end builds on the
library's simulator path instead: ``intra_inter_similarity``, a
diagnostic of ``generate``'s embeddings.
"""

import math
from itertools import permutations

import numpy as np

from bevtrack.geometry import _DEGENERATE_EPS, _EDGE_EPS
from bevtrack.simulator import ScenarioConfig, generate

_BIG = 1e6


# ---------------------------------------------------------------------------
# rasterized rotated-rectangle IoU

def _row_intervals(ys, h_cell, cx, cy, length, width, yaw):
    """For each row of cell centers, the x-interval inside the rectangle.

    A rotated rectangle is the intersection of two slabs |u| <= L/2 and
    |v| <= W/2 with u, v linear in x along a row, so each row's inside set
    is one interval.
    """
    c, s = math.cos(yaw), math.sin(yaw)
    lo = np.full(ys.shape, -np.inf)
    hi = np.full(ys.shape, np.inf)
    for coef, offs, half in (
            (c, s * (ys - cy) - c * cx, 0.5 * length),
            (-s, c * (ys - cy) + s * cx, 0.5 * width)):
        if abs(coef) < 1e-12:
            empty = np.abs(offs) > half
            lo = np.where(empty, np.inf, lo)
            hi = np.where(empty, -np.inf, hi)
        else:
            a = (-half - offs) / coef
            b = (half - offs) / coef
            lo = np.maximum(lo, np.minimum(a, b))
            hi = np.minimum(hi, np.maximum(a, b))
    return lo, hi


def _corners(cx, cy, length, width, yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dy = 0.5 * length, 0.5 * width
    return np.array([(cx + c * x - s * y, cy + s * x + c * y)
                     for x, y in ((dx, dy), (-dx, dy), (-dx, -dy), (dx, -dy))])


def rasterized_iou(box_a, box_b, cell=0.001):
    """IoU from counting `cell`-sized rasterization cells whose centers lie
    in each footprint, over the union's bounding box.

    box_*: (cx, cy, length, width, yaw). Counting is done per row in closed
    form, which tallies exactly the same cells a full point-in-box sweep
    would.
    """
    pts = np.vstack([_corners(*box_a), _corners(*box_b)])
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    nx = max(1, int(math.ceil((xmax - xmin) / cell)))
    ny = max(1, int(math.ceil((ymax - ymin) / cell)))
    ys = ymin + (np.arange(ny) + 0.5) * cell

    lo_a, hi_a = _row_intervals(ys, cell, *box_a)
    lo_b, hi_b = _row_intervals(ys, cell, *box_b)

    def _count(lo, hi):
        i_lo = np.ceil((lo - xmin) / cell - 0.5)
        i_hi = np.floor((hi - xmin) / cell - 0.5)
        i_lo = np.maximum(i_lo, 0)
        i_hi = np.minimum(i_hi, nx - 1)
        return np.maximum(i_hi - i_lo + 1, 0).sum()

    n_a = _count(lo_a, hi_a)
    n_b = _count(lo_b, hi_b)
    n_inter = _count(np.maximum(lo_a, lo_b), np.minimum(hi_a, hi_b))
    n_union = n_a + n_b - n_inter
    if n_union <= 0:
        return 0.0
    return float(n_inter / n_union)


def rasterized_iou_dense(box_a, box_b, cell=0.01):
    """Literal dense-grid variant (point-in-box test per cell center);
    only viable at coarse cells, used to cross-check rasterized_iou."""
    pts = np.vstack([_corners(*box_a), _corners(*box_b)])
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    nx = max(1, int(math.ceil((xmax - xmin) / cell)))
    ny = max(1, int(math.ceil((ymax - ymin) / cell)))
    xs = xmin + (np.arange(nx) + 0.5) * cell
    ys = ymin + (np.arange(ny) + 0.5) * cell
    gx, gy = np.meshgrid(xs, ys)

    def _inside(box):
        cx, cy, length, width, yaw = box
        c, s = math.cos(yaw), math.sin(yaw)
        u = c * (gx - cx) + s * (gy - cy)
        v = -s * (gx - cx) + c * (gy - cy)
        return (np.abs(u) <= 0.5 * length) & (np.abs(v) <= 0.5 * width)

    in_a = _inside(box_a)
    in_b = _inside(box_b)
    inter = int((in_a & in_b).sum())
    union = int(in_a.sum()) + int(in_b.sum()) - inter
    if union <= 0:
        return 0.0
    return inter / union


# ---------------------------------------------------------------------------
# exact scalar polygon clip, one pair at a time (the library's tolerances)

def _rect_corners(cx, cy, length, width, yaw):
    """BEV footprint corners in counter-clockwise order."""
    c = math.cos(yaw)
    s = math.sin(yaw)
    dx = 0.5 * length
    dy = 0.5 * width
    return [
        (cx + c * dx - s * dy, cy + s * dx + c * dy),
        (cx - c * dx - s * dy, cy - s * dx + c * dy),
        (cx - c * dx + s * dy, cy - s * dx - c * dy),
        (cx + c * dx + s * dy, cy + s * dx - c * dy),
    ]


def _clip(poly, a, b):
    """Clip polygon by the half-plane left of directed edge a->b."""
    ex = b[0] - a[0]
    ey = b[1] - a[1]
    out = []
    if not poly:
        return out
    sx, sy = poly[-1]
    s_in = ex * (sy - a[1]) - ey * (sx - a[0]) >= -_EDGE_EPS
    for px, py in poly:
        p_in = ex * (py - a[1]) - ey * (px - a[0]) >= -_EDGE_EPS
        if p_in != s_in:
            dx = px - sx
            dy = py - sy
            den = ex * dy - ey * dx
            if abs(den) > _DEGENERATE_EPS:
                t = (ex * (a[1] - sy) - ey * (a[0] - sx)) / den
                out.append((sx + t * dx, sy + t * dy))
            # near-parallel crossing within tolerance: skip the intersection
            # point, the neighbouring vertices bound the area error by eps
        if p_in:
            out.append((px, py))
        sx, sy, s_in = px, py, p_in
    return out


def _shoelace(poly):
    n = len(poly)
    if n < 3:
        return 0.0
    acc = 0.0
    x0, y0 = poly[-1]
    for x1, y1 in poly:
        acc += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return 0.5 * abs(acc)


def rect_iou(ax, ay, al, aw, ayaw, bx, by, bl, bw, byaw):
    """IoU of two yaw-rotated BEV rectangles (cx, cy, length, width, yaw):
    a's footprint clipped by b's four edges (Sutherland-Hodgman), the
    intersection area by the shoelace formula."""
    pa = _rect_corners(ax, ay, al, aw, ayaw)
    pb = _rect_corners(bx, by, bl, bw, byaw)
    poly = pa
    prev = pb[-1]
    for v in pb:
        poly = _clip(poly, prev, v)
        if not poly:
            break
        prev = v
    inter = _shoelace(poly)
    union = al * aw + bl * bw - inter
    if union <= _DEGENERATE_EPS:
        return 0.0
    iou = inter / union
    return min(max(iou, 0.0), 1.0)


def buffered_iou(a, b, ra, rb):
    """``rect_iou`` of the footprints of boxes a and b after scaling each
    one's length and width by (1 + its ratio), the product
    ``buffered_iou_matrix`` forms."""
    return rect_iou(a.cx, a.cy, a.length * (1.0 + ra), a.width * (1.0 + ra),
                    a.yaw, b.cx, b.cy, b.length * (1.0 + rb),
                    b.width * (1.0 + rb), b.yaw)


# ---------------------------------------------------------------------------
# exhaustive assignment

def brute_force_assignment(values, gate):
    """Optimal gated assignment by enumerating every injective mapping.

    Mirrors the production convention: gated-out pairs cost _BIG, so the
    optimum first maximizes admissible matches, then minimizes their cost.
    Returns (sorted admissible pairs, exact total admissible cost).
    """
    values = np.asarray(values, dtype=float)
    gate = np.asarray(gate, dtype=bool)
    n, m = values.shape
    if n == 0 or m == 0 or not gate.any():
        return [], 0.0
    padded = np.where(gate, values, _BIG)
    best_total = None
    best_pairs = None
    if n <= m:
        for perm in permutations(range(m), n):
            total = math.fsum(padded[i, j] for i, j in enumerate(perm))
            if best_total is None or total < best_total:
                best_total = total
                best_pairs = list(enumerate(perm))
    else:
        for perm in permutations(range(n), m):
            total = math.fsum(padded[i, j] for j, i in enumerate(perm))
            if best_total is None or total < best_total:
                best_total = total
                best_pairs = [(i, j) for j, i in enumerate(perm)]
    pairs = sorted((i, j) for i, j in best_pairs if gate[i, j])
    cost = math.fsum(values[i, j] for i, j in pairs)
    return pairs, cost


# ---------------------------------------------------------------------------
# multi-clue similarity, one pair at a time

# zero-norm threshold of the library's similarity matrix
_NORM_EPS = 1e-12


def normalized_inner_product(u, v):
    """Cosine similarity; zero-norm inputs yield 0 instead of NaN."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < _NORM_EPS or nv < _NORM_EPS:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def multi_clue_similarity(d, t, w):
    """Weighted sum of the three per-clue cosine similarities of two
    appearance states under clue weights w."""
    return (w.img * normalized_inner_product(d.e_img, t.e_img)
            + w.bev * normalized_inner_product(d.e_bev, t.e_bev)
            + w.head * normalized_inner_product(d.e_head, t.e_head))


# ---------------------------------------------------------------------------
# literal deformable attention (quadruple loop)

def _bilinear_point(data, r, c):
    h, w, ch = data.shape
    r0, c0 = math.floor(r), math.floor(c)
    fr, fc = r - r0, c - c0
    out = np.zeros(ch)
    for dr, dc, wgt in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                        (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
        ri, ci = r0 + dr, c0 + dc
        if 0 <= ri < h and 0 <= ci < w:
            out += wgt * data[ri, ci]
    return out


def naive_temporal_fuse(prev_data, curr_data, params):
    """Per-cell, per-head, per-point literal evaluation of the fusion."""
    h, w, c = curr_data.shape
    out = np.zeros((h, w, c))
    for i in range(h):
        for j in range(w):
            feat = np.concatenate([prev_data[i, j], curr_data[i, j]])
            for head in range(params.heads):
                logits = np.array([params.w_attention[head, k] @ feat
                                   for k in range(params.points)])
                logits -= logits.max()
                att = np.exp(logits)
                att /= att.sum()
                acc = np.zeros(params.w_value.shape[1])
                for k in range(params.points):
                    dr = params.w_offset[head, k, 0] @ feat
                    dc = params.w_offset[head, k, 1] @ feat
                    sample = _bilinear_point(curr_data, i + dr, j + dc)
                    acc += att[k] * (params.w_value[head] @ sample)
                out[i, j] += params.w_out[head] @ acc
    return out


# ---------------------------------------------------------------------------
# literal normalized box convolution with zero padding

def naive_box_conv(data, k):
    h, w, c = data.shape
    rad = k // 2
    out = np.zeros_like(data)
    for i in range(h):
        for j in range(w):
            acc = np.zeros(c)
            for di in range(-rad, rad + 1):
                for dj in range(-rad, rad + 1):
                    ri, cj = i + di, j + dj
                    if 0 <= ri < h and 0 <= cj < w:
                        acc += data[ri, cj]
            out[i, j] = acc / (k * k)
    return out


# ---------------------------------------------------------------------------
# dense textbook Kalman filter (10-state constant velocity, full matrices)

def dense_kalman_predict(mean, cov, dt, q):
    """x <- F x, P <- F P F' + Q, with q the diagonal of Q."""
    f = np.eye(10)
    f[0, 7] = f[1, 8] = f[2, 9] = dt
    return f @ mean, f @ cov @ f.T + np.diag(q)


def dense_kalman_update(mean, cov, z, r, min_dim):
    """Gain K = P H' S^-1 from np.linalg.solve, Joseph-form covariance.

    z is the (7,) box measurement (cx, cy, cz, yaw, l, w, h) and r the
    diagonal of R. The yaw innovation is wrapped by the IEEE remainder and
    the posterior dims are floored at min_dim.
    """
    h = np.eye(7, 10)
    r_mat = np.diag(r)
    innov = np.asarray(z, dtype=np.float64) - h @ mean
    innov[3] = math.remainder(innov[3], 2.0 * math.pi)
    s = h @ cov @ h.T + r_mat
    gain = np.linalg.solve(s, h @ cov).T
    post = mean + gain @ innov
    post[4:7] = np.maximum(post[4:7], min_dim)
    ikh = np.eye(10) - gain @ h
    return post, ikh @ cov @ ikh.T + gain @ r_mat @ gain.T


# ---------------------------------------------------------------------------
# tracking metrics with per-threshold row lists (nuScenes AMOTA / CLEAR MOT)

def _greedy_frame_tps(gt, preds, match_distance):
    """(gt_id, track_id, distance) TPs of one frame: predictions by
    descending score (ties by ascending track id) take the nearest free
    visible GT within match_distance; the last GT at equal distance wins."""
    free = {gid: (box.cx, box.cy) for gid, box, vis in gt.objects if vis}
    tps = []
    for track_id, box, _score in sorted(preds, key=lambda p: (-p[2], p[0])):
        best_gid, best_dist = None, match_distance
        for gid, (cx, cy) in free.items():
            d = math.hypot(box.cx - cx, box.cy - cy)
            if d <= best_dist:
                best_gid, best_dist = gid, d
        if best_gid is not None:
            tps.append((best_gid, track_id, best_dist))
            del free[best_gid]
    return tps


def _list_switches(rows):
    """Identity switches of (frame_id, gt_id, track_id, ...) rows: a GT's
    track id changing between its consecutive matched frames."""
    by_gt = {}
    for frame_id, gt_id, track_id, *_ in rows:
        by_gt.setdefault(gt_id, []).append((frame_id, track_id))
    switches = 0
    for pairs in by_gt.values():
        pairs.sort()
        switches += sum(1 for (_, a), (_, b) in zip(pairs, pairs[1:])
                        if a != b)
    return switches


def reference_evaluate(gt_frames, tracker_output, match_distance=2.0,
                       recall_thresholds=40):
    """The metrics report as a dict (``dataclasses.asdict`` of a
    MetricsReport): one
    all-predictions matching, then for every recall threshold the list of
    surviving TP rows, regrouped and re-sorted per GT to count switches."""
    num_gt = sum(1 for g in gt_frames for _, _, vis in g.objects if vis)
    num_preds = sum(len(v) for v in tracker_output.values())
    base = []  # (frame_id, gt_id, track_id, score, distance)
    visible_frames = {}
    for g in gt_frames:
        for gid, _box, vis in g.objects:
            if vis:
                visible_frames.setdefault(gid, []).append(g.frame_id)
        preds = tracker_output.get(g.frame_id, [])
        score_of = {}
        for tid, _box, score in preds:
            score_of.setdefault(tid, score)  # first occurrence wins
        base.extend((g.frame_id, gid, tid, score_of[tid], dist)
                    for gid, tid, dist in _greedy_frame_tps(g, preds,
                                                            match_distance))
    tp_total = len(base)
    fp_total, fn_total = num_preds - tp_total, num_gt - tp_total
    ids_total = _list_switches(base)
    matched = {}
    for row in base:
        matched[row[1]] = matched.get(row[1], 0) + 1
    mt = sum(1 for gid, frames in visible_frames.items()
             if matched.get(gid, 0) >= 0.8 * len(frames))

    tp_scores = np.sort(np.array([row[3] for row in base]))[::-1]
    all_scores = np.sort(np.array(
        [s for preds in tracker_output.values() for (_t, _b, s) in preds]))[::-1]
    motars, amotp_terms, per_threshold = [], [], []
    for k in range(1, recall_thresholds + 1):
        target = k / recall_thresholds
        need = math.ceil(target * num_gt)
        if need > tp_total:
            motars.append(0.0)
            per_threshold.append({"target_recall": target, "reachable": False,
                                  "motar": 0.0})
            continue
        thr = tp_scores[need - 1]
        survivors = [row for row in base if row[3] >= thr]
        tp_k = len(survivors)
        pred_k = int(np.searchsorted(-all_scores, -thr, side="right"))
        fp_k, fn_k = pred_k - tp_k, num_gt - tp_k
        ids_k = _list_switches(survivors)
        r_ach = tp_k / num_gt
        motar = max(0.0, 1.0 - (ids_k + fp_k + fn_k - (1.0 - r_ach) * num_gt)
                    / (r_ach * num_gt))
        motars.append(motar)
        amotp_terms.append(float(np.mean([row[4] for row in survivors])))
        per_threshold.append({
            "target_recall": target, "reachable": True, "threshold": float(thr),
            "achieved_recall": r_ach, "tp": tp_k, "fp": fp_k, "fn": fn_k,
            "ids": ids_k, "motar": motar,
        })
    return {
        "amota": float(np.mean(motars)),
        "amotp": (float(np.mean(amotp_terms)) if amotp_terms
                  else match_distance),
        "mota": 1.0 - (ids_total + fp_total + fn_total) / num_gt,
        "recall": tp_total / num_gt, "ids": ids_total, "fp": fp_total,
        "fn": fn_total, "mt": mt, "num_gt": num_gt,
        "per_threshold": per_threshold,
    }


# ---------------------------------------------------------------------------
# a helper on the library's simulator path (module doc)

def intra_inter_similarity(cfg: ScenarioConfig,
                           clue: str = "img") -> tuple[float, float]:
    """Mean same-identity vs cross-identity cosine similarity of the
    generated detection embeddings (diagnostic for the identity signal)."""
    gt_frames, det_frames = generate(cfg)
    column = ("img", "bev", "head").index(clue)
    by_id: dict[int, list[np.ndarray]] = {}
    for gtf, frame in zip(gt_frames, det_frames):
        centers = {gid: (box.cx, box.cy) for gid, box, vis in gtf.objects if vis}
        for (x, y), emb in zip(frame.boxes[:, :2].tolist(),
                               frame.emb[:, column]):
            best = None
            for gid, (cx, cy) in centers.items():
                d = math.hypot(x - cx, y - cy)
                if d < 1.0 and (best is None or d < best[1]):
                    best = (gid, d)
            if best is not None:
                by_id.setdefault(best[0], []).append(emb)
    intra: list[float] = []
    inter: list[float] = []
    ids = sorted(by_id)
    for gid in ids:
        vecs = by_id[gid]
        for a in range(len(vecs)):
            for b in range(a + 1, len(vecs)):
                intra.append(float(vecs[a] @ vecs[b]))
    for ai in range(len(ids)):
        for bi in range(ai + 1, len(ids)):
            for va in by_id[ids[ai]][:5]:
                for vb in by_id[ids[bi]][:5]:
                    inter.append(float(va @ vb))
    return float(np.mean(intra)), float(np.mean(inter))
