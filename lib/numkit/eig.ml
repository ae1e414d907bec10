exception No_convergence of int

(* reduction to upper Hessenberg form by stabilised elementary
   similarity transformations (the classic "elmhes") *)
let hessenberg a =
  let n, n' = Mat.dims a in
  if n <> n' then invalid_arg "Eig.hessenberg: non-square matrix";
  let h = Mat.copy a in
  for m = 1 to n - 2 do
    (* pivot: largest magnitude in column m−1 at or below row m *)
    let piv = ref m in
    for i = m + 1 to n - 1 do
      if Float.abs (Mat.get h i (m - 1)) > Float.abs (Mat.get h !piv (m - 1))
      then piv := i
    done;
    let x = Mat.get h !piv (m - 1) in
    if !piv <> m then begin
      (* swap rows and columns piv <-> m (similarity) *)
      for j = m - 1 to n - 1 do
        let tmp = Mat.get h !piv j in
        Mat.set h !piv j (Mat.get h m j);
        Mat.set h m j tmp
      done;
      for i = 0 to n - 1 do
        let tmp = Mat.get h i !piv in
        Mat.set h i !piv (Mat.get h i m);
        Mat.set h i m tmp
      done
    end;
    if x <> 0.0 then
      for i = m + 1 to n - 1 do
        let y = Mat.get h i (m - 1) /. x in
        if y <> 0.0 then begin
          (* row i −= y · row m *)
          for j = m - 1 to n - 1 do
            Mat.set h i j (Mat.get h i j -. (y *. Mat.get h m j))
          done;
          (* column m += y · column i *)
          for k = 0 to n - 1 do
            Mat.set h k m (Mat.get h k m +. (y *. Mat.get h k i))
          done
        end
      done
  done;
  (* zero the numerical junk below the subdiagonal *)
  for i = 2 to n - 1 do
    for j = 0 to i - 2 do
      Mat.set h i j 0.0
    done
  done;
  h

(* Francis implicit double-shift QR on an upper Hessenberg matrix — a
   faithful port of the classic "hqr" (Wilkinson/EISPACK lineage); the
   comments follow successive similarity transforms on 2–3 row/column
   slabs, so line-by-line commentary would only obscure the invariants:
   see Golub & Van Loan §7.5 for the derivation. 1-based scratch array
   to keep the port reviewable against the reference. *)
let hqr hess =
  let n, _ = Mat.dims hess in
  if n = 0 then [||]
  else begin
    let a = Array.make_matrix (n + 1) (n + 1) 0.0 in
    for i = 1 to n do
      for j = 1 to n do
        a.(i).(j) <- Mat.get hess (i - 1) (j - 1)
      done
    done;
    let wr = Array.make (n + 1) 0.0 and wi = Array.make (n + 1) 0.0 in
    let sign a b = if b >= 0.0 then Float.abs a else -.Float.abs a in
    let anorm = ref 0.0 in
    for i = 1 to n do
      for j = max (i - 1) 1 to n do
        anorm := !anorm +. Float.abs a.(i).(j)
      done
    done;
    let nn = ref n in
    let t = ref 0.0 in
    while !nn >= 1 do
      let its = ref 0 in
      let continue_inner = ref true in
      while !continue_inner do
        (* look for a single small subdiagonal element *)
        let l = ref !nn in
        (try
           while !l >= 2 do
             let s =
               Float.abs a.(!l - 1).(!l - 1) +. Float.abs a.(!l).(!l)
             in
             let s = if s = 0.0 then !anorm else s in
             if Float.abs a.(!l).(!l - 1) +. s = s then begin
               a.(!l).(!l - 1) <- 0.0;
               raise Exit
             end;
             decr l
           done
         with Exit -> ());
        let x = ref a.(!nn).(!nn) in
        if !l = !nn then begin
          wr.(!nn) <- !x +. !t;
          wi.(!nn) <- 0.0;
          decr nn;
          continue_inner := false
        end
        else begin
          let y = ref a.(!nn - 1).(!nn - 1) in
          let w = ref (a.(!nn).(!nn - 1) *. a.(!nn - 1).(!nn)) in
          if !l = !nn - 1 then begin
            let p = 0.5 *. (!y -. !x) in
            let q = (p *. p) +. !w in
            let z = sqrt (Float.abs q) in
            x := !x +. !t;
            if q >= 0.0 then begin
              let z = p +. sign z p in
              wr.(!nn - 1) <- !x +. z;
              wr.(!nn) <- wr.(!nn - 1);
              if z <> 0.0 then wr.(!nn) <- !x -. (!w /. z);
              wi.(!nn - 1) <- 0.0;
              wi.(!nn) <- 0.0
            end
            else begin
              wr.(!nn - 1) <- !x +. p;
              wr.(!nn) <- !x +. p;
              wi.(!nn) <- z;
              wi.(!nn - 1) <- -.z
            end;
            nn := !nn - 2;
            continue_inner := false
          end
          else begin
            (* an exceptional shift every 10 iterations breaks the
               cycles the Francis shift can fall into; EISPACK's cap of
               30 (shifts at 10 and 20 only) left a benign 8×8 stuck *)
            if !its = 60 then raise (No_convergence !nn);
            if !its > 0 && !its mod 10 = 0 then begin
              t := !t +. !x;
              for i = 1 to !nn do
                a.(i).(i) <- a.(i).(i) -. !x
              done;
              let s =
                Float.abs a.(!nn).(!nn - 1) +. Float.abs a.(!nn - 1).(!nn - 2)
              in
              x := 0.75 *. s;
              y := !x;
              w := -0.4375 *. s *. s
            end;
            incr its;
            let p = ref 0.0 and q = ref 0.0 and r = ref 0.0 in
            let m = ref (!nn - 2) in
            (try
               while !m >= !l do
                 let z = a.(!m).(!m) in
                 let rr = !x -. z in
                 let ss = !y -. z in
                 p :=
                   (((rr *. ss) -. !w) /. a.(!m + 1).(!m)) +. a.(!m).(!m + 1);
                 q := a.(!m + 1).(!m + 1) -. z -. rr -. ss;
                 r := a.(!m + 2).(!m + 1);
                 let s = Float.abs !p +. Float.abs !q +. Float.abs !r in
                 p := !p /. s;
                 q := !q /. s;
                 r := !r /. s;
                 if !m = !l then raise Exit;
                 let u = Float.abs a.(!m).(!m - 1) *. (Float.abs !q +. Float.abs !r) in
                 let v =
                   Float.abs !p
                   *. (Float.abs a.(!m - 1).(!m - 1)
                      +. Float.abs z
                      +. Float.abs a.(!m + 1).(!m + 1))
                 in
                 if u +. v = v then raise Exit;
                 decr m
               done
             with Exit -> ());
            for i = !m + 2 to !nn do
              a.(i).(i - 2) <- 0.0;
              if i <> !m + 2 then a.(i).(i - 3) <- 0.0
            done;
            for k = !m to !nn - 1 do
              if k <> !m then begin
                p := a.(k).(k - 1);
                q := a.(k + 1).(k - 1);
                r := 0.0;
                if k <> !nn - 1 then r := a.(k + 2).(k - 1);
                x := Float.abs !p +. Float.abs !q +. Float.abs !r;
                if !x <> 0.0 then begin
                  p := !p /. !x;
                  q := !q /. !x;
                  r := !r /. !x
                end
              end;
              let s = sign (sqrt ((!p *. !p) +. (!q *. !q) +. (!r *. !r))) !p in
              if s <> 0.0 then begin
                if k = !m then begin
                  if !l <> !m then a.(k).(k - 1) <- -.a.(k).(k - 1)
                end
                else a.(k).(k - 1) <- -.s *. !x;
                p := !p +. s;
                x := !p /. s;
                y := !q /. s;
                let z = !r /. s in
                q := !q /. !p;
                r := !r /. !p;
                for j = k to !nn do
                  let pj = ref (a.(k).(j) +. (!q *. a.(k + 1).(j))) in
                  if k <> !nn - 1 then begin
                    pj := !pj +. (!r *. a.(k + 2).(j));
                    a.(k + 2).(j) <- a.(k + 2).(j) -. (!pj *. z)
                  end;
                  a.(k + 1).(j) <- a.(k + 1).(j) -. (!pj *. !y);
                  a.(k).(j) <- a.(k).(j) -. (!pj *. !x)
                done;
                let mmin = min !nn (k + 3) in
                for i = !l to mmin do
                  let pi =
                    ref ((!x *. a.(i).(k)) +. (!y *. a.(i).(k + 1)))
                  in
                  if k <> !nn - 1 then begin
                    pi := !pi +. (z *. a.(i).(k + 2));
                    a.(i).(k + 2) <- a.(i).(k + 2) -. (!pi *. !r)
                  end;
                  a.(i).(k + 1) <- a.(i).(k + 1) -. (!pi *. !q);
                  a.(i).(k) <- a.(i).(k) -. !pi
                done
              end
            done
          end
        end
      done
    done;
    Array.init n (fun i -> { Complex.re = wr.(i + 1); im = wi.(i + 1) })
  end

let eigenvalues a = hqr (hessenberg a)

let spectral_abscissa a =
  Array.fold_left
    (fun acc z -> Float.max acc z.Complex.re)
    neg_infinity (eigenvalues a)
