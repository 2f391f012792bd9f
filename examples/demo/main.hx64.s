main:
    mov rdi, 7
    call square
    ret
