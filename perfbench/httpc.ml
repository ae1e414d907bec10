(* Minimal keep-alive HTTP/1.1 client: Content-Length framing only,
   which is all opm_serve speaks. *)

exception Malformed of string

type response = { status : int; body : string }

(* Parse one response from the front of [buf]: [Some (response,
   consumed_bytes)] once head and body are complete, [None] while more
   bytes are needed. Raises [Malformed] on a bad status line or a
   missing Content-Length. *)
let parse_response buf =
  let len = String.length buf in
  let rec head_end i =
    if i + 3 >= len then None
    else if buf.[i] = '\r' && buf.[i + 1] = '\n' && buf.[i + 2] = '\r'
            && buf.[i + 3] = '\n'
    then Some (i + 4)
    else head_end (i + 1)
  in
  match head_end 0 with
  | None -> None
  | Some body_start ->
      let lines =
        String.split_on_char '\n' (String.sub buf 0 body_start)
        |> List.map String.trim
      in
      let status =
        match lines with
        | first :: _ -> (
            match String.split_on_char ' ' first with
            | v :: code :: _
              when String.length v >= 5 && String.sub v 0 5 = "HTTP/" -> (
                match int_of_string_opt code with
                | Some s -> s
                | None -> raise (Malformed ("status line: " ^ first)))
            | _ -> raise (Malformed ("status line: " ^ first)))
        | [] -> raise (Malformed "empty head")
      in
      let content_length =
        List.find_map
          (fun l ->
            match String.index_opt l ':' with
            | Some i
              when String.lowercase_ascii (String.sub l 0 i) = "content-length"
              ->
                int_of_string_opt
                  (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
            | _ -> None)
          lines
      in
      (match content_length with
      | None -> raise (Malformed "no Content-Length")
      | Some cl ->
          if len < body_start + cl then None
          else
            Some ({ status; body = String.sub buf body_start cl }, body_start + cl))

type conn = { fd : Unix.file_descr; mutable pending : string }

let connect ~port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt_float fd SO_RCVTIMEO 60.0;
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; pending = "" }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let read_response c =
  let tmp = Bytes.create 65536 in
  let rec go () =
    match parse_response c.pending with
    | Some (r, used) ->
        c.pending <-
          String.sub c.pending used (String.length c.pending - used);
        r
    | None -> (
        match Unix.read c.fd tmp 0 (Bytes.length tmp) with
        | 0 -> raise (Malformed "connection closed mid-response")
        | n ->
            c.pending <- c.pending ^ Bytes.sub_string tmp 0 n;
            go ())
  in
  go ()

let request c ~meth ~path ?(body = "") () =
  write_all c.fd
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
       meth path (String.length body) body);
  read_response c
